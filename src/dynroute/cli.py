"""Command-line surface: corpus generation, training, evaluation, reports.

Subcommands:
    gen-data      write a synthetic corpus (PGM images + JSONL annotations)
    train         optimize on a corpus; writes checkpoint + JSONL step log
    eval          routing statistics report (CSV + human-readable summary)
    cost-report   per-sample cost CSV for a corpus under a checkpoint
    export-route  DOT or SVG diagram of one image's binarized route

Exit codes: 0 success, 2 usage, configuration, input or file error
(a missing file, or a directory where a file is expected), 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import trainer  # load_model is looked up on trainer, where perfbench wraps it
from .autodiff import Tensor
from .config import load_config, synth_config_from, train_config_from
# binary_route_cost is not called here; perfbench/tracing.py wraps this binding
from .costmodel import CostReport, binary_route_cost  # noqa: F401
from .data_synth import generate_corpus, load_corpus, read_pgm, save_corpus
from .errors import ConfigurationError, DataError, NumericError, UsageError
from .supernet import DIRECTIONS, NodeId, RouteRecord, SupernetSpec
from .trainer import (
    TrainingAborted,
    corpus_cost_table,
    evaluate_routing,
    infer_batches,
    model_from_config,
    save_model,
    train,
    write_log,
)

# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config["data"]["seed"] = args.seed
    corpus = generate_corpus(synth_config_from(config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, out)
    print(f"wrote {len(corpus)} images and annotations to {out}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    corpus = load_corpus(args.data)
    model = model_from_config(config)
    corpus_cost_table(model, corpus)  # an empty corpus or a bad image size fails before --out exists
    tc = train_config_from(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = train(model, tc, corpus)
    except TrainingAborted as exc:
        model.load_state(exc.last_good)
        save_model(out / "checkpoint.ckpt", model, config)
        write_log(exc.log, out / "train_log.jsonl")
        print(f"numeric failure: {exc}; last-good checkpoint written to {out}", file=sys.stderr)
        return 3
    save_model(out / "checkpoint.ckpt", model, config)
    write_log(result.log, out / "train_log.jsonl")
    print(f"trained {tc.epochs} epochs ({len(result.log)} steps); checkpoint in {out}")
    return 0


def _output_file(path: str) -> Path:
    """path as a file to write, its directory made; called before any
    work so that a path that cannot be a file fails first."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.is_dir():
        raise UsageError(f"output path {out} is a directory, expected a file")
    return out


def cmd_eval(args) -> int:
    report_path = _output_file(args.report)
    model, _config = trainer.load_model(args.checkpoint)
    corpus = load_corpus(args.data)
    summary = evaluate_routing(model, corpus)
    with open(report_path, "w", encoding="ascii") as f:
        f.write(summary.to_csv())
    print(summary.human_summary(), end="")
    print(f"report written to {report_path}")
    return 0


def cmd_cost_report(args) -> int:
    out = _output_file(args.out)
    model, _config = trainer.load_model(args.checkpoint)
    corpus = load_corpus(args.data)
    table = corpus_cost_table(model, corpus)
    costs = np.concatenate([c for *_, c in infer_batches(model, corpus, table)]).tolist()
    report = CostReport(sample_costs=costs, total_cost=table.total)
    with open(out, "w", encoding="ascii") as f:
        f.write(report.to_csv())
    print(
        f"cost report for {len(costs)} samples written to {out}; "
        f"routers (outside C_net): {table.router_madds:.0f} MAdds"
    )
    return 0


def cmd_export_route(args) -> int:
    if args.format not in ("dot", "svg"):
        raise UsageError(f"unknown format {args.format!r}; expected dot or svg")
    out = _output_file(args.out)
    model, _config = trainer.load_model(args.checkpoint)
    image = read_pgm(args.image).astype(np.float64) / 255.0
    images = Tensor(image[None, None, :, :])
    _, record = model.supernet.forward(images, mode="infer")
    if args.format == "dot":
        text = route_to_dot(model.spec, record)
    else:
        text = route_to_svg(model.spec, record)
    with open(out, "w", encoding="ascii") as f:
        f.write(text)
    print(f"{args.format} route diagram written to {out}")
    return 0


# ---------------------------------------------------------------------------
# diagram emitters: the route of a record's first (only) sample
# ---------------------------------------------------------------------------

def _open_edges(spec: SupernetSpec, record: RouteRecord):
    """Yield (node, gate_value, receiver) for open gates; the receiver is
    the NodeId fed, or at the last layer the int output scale."""
    for node in record.node_ids:
        mask = record.masks[node][0]
        gates = record.gates[node][0]
        for j, (_direction, delta) in enumerate(DIRECTIONS):
            if not mask[j]:
                continue
            if node.layer == spec.num_layers:
                receiver = node.scale
            else:
                receiver = NodeId(node.layer + 1, node.scale + delta)
            yield node, float(gates[j]), receiver


def route_to_dot(spec: SupernetSpec, record: RouteRecord) -> str:
    lines = [
        "digraph route {",
        "  rankdir=LR;",
        '  stem [shape=box, label="stem"];',
    ]
    for node in record.node_ids:
        name = f"n{node.layer}_{node.scale}"
        label = f"L{node.layer}/S{node.scale}"
        if record.masks[node][0].any():
            lines.append(f'  {name} [label="{label}"];')
        else:
            lines.append(
                f'  {name} [label="{label}", style=filled, fillcolor=gray80, color=gray50];'
            )
    for s in range(spec.num_scales):
        lines.append(f'  out{s} [shape=box, label="C{3 + s}"];')
    lines.append("  stem -> n1_0;")
    for node, gate, receiver in _open_edges(spec, record):
        target = f"out{receiver}" if isinstance(receiver, int) else f"n{receiver.layer}_{receiver.scale}"
        lines.append(f'  n{node.layer}_{node.scale} -> {target} [label="{gate:.3f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def route_to_svg(spec: SupernetSpec, record: RouteRecord) -> str:
    cell = 70
    pad = 40
    width = pad * 2 + (spec.num_layers + 2) * cell
    height = pad * 2 + max(spec.num_scales - 1, 1) * cell + cell

    def pos(layer: int, scale: int) -> tuple[int, int]:
        return pad + layer * cell, pad + scale * cell + cell // 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    sx, sy = pos(0, 0)
    x1, y1 = pos(1, 0)
    parts.append(
        f'<line x1="{sx}" y1="{sy}" x2="{x1}" y2="{y1}" stroke="black" stroke-width="1.5"/>'
    )
    for node, _gate, receiver in _open_edges(spec, record):
        ax, ay = pos(node.layer, node.scale)
        if isinstance(receiver, int):
            bx, by = pos(spec.num_layers + 1, receiver)
        else:
            bx, by = pos(receiver.layer, receiver.scale)
        parts.append(
            f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" stroke="steelblue" '
            f'stroke-width="1.5"/>'
        )
    parts.append(
        f'<rect x="{sx - 18}" y="{sy - 12}" width="36" height="24" fill="lightsteelblue" '
        f'stroke="black"/><text x="{sx}" y="{sy + 4}" text-anchor="middle" '
        f'font-size="10">stem</text>'
    )
    for node in record.node_ids:
        x, y = pos(node.layer, node.scale)
        fill = "steelblue" if record.masks[node][0].any() else "lightgray"
        parts.append(f'<circle cx="{x}" cy="{y}" r="10" fill="{fill}" stroke="black"/>')
    for s in range(spec.num_scales):
        x, y = pos(spec.num_layers + 1, s)
        parts.append(
            f'<rect x="{x - 14}" y="{y - 10}" width="28" height="20" fill="white" '
            f'stroke="black"/><text x="{x}" y="{y + 4}" text-anchor="middle" '
            f'font-size="10">C{3 + s}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynroute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on a corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate routing statistics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cost-report", help="per-sample cost CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cost_report)

    p = sub.add_parser("export-route", help="route diagram for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--format", default="dot")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_route)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, UsageError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
