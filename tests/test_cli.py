"""CLI surface: config handling, subcommands, exit codes, exports."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dynroute import trainer
from dynroute.cli import main, route_to_dot, route_to_svg
from dynroute.config import load_config, supernet_spec_from
from dynroute.costmodel import compile_cost_table
from dynroute.errors import ConfigurationError

TINY_CONFIG = {
    "schema": "dynroute-config/1",
    "supernet": {"num_layers": 4, "channels_per_scale": [4, 8, 16, 32], "head_channels": 8},
    "data": {"num_images": 16, "seed": 3},
    "train": {"epochs": 1, "batch_size": 4, "lr_drop_epochs": [], "seed": 3, "pretrain_epochs": 1},
}


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data + train once for the read-only command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    data = root / "corpus"
    run = root / "run"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg_path), "--data", str(data), "--out", str(run)]) == 0
    return {"config": cfg_path, "data": data, "run": run}


class TestConfig:
    def test_defaults_complete(self):
        config = load_config(None)
        assert config["schema"] == "dynroute-config/1"
        assert config["train"]["epochs"] == 12
        assert config["supernet"]["num_layers"] == 8

    def test_partial_override_keeps_defaults(self, tiny_config_path):
        config = load_config(tiny_config_path)
        assert config["supernet"]["num_layers"] == 4
        assert config["supernet"]["gate_threshold"] == 1e-4
        assert config["train"]["base_lr"] == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"trainx": {}}))
        with pytest.raises(ConfigurationError, match="unknown config key trainx"):
            load_config(str(path))
        path.write_text(json.dumps({"train": {"lr": 0.1}}))
        with pytest.raises(ConfigurationError, match="train.lr"):
            load_config(str(path))

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "dynroute-config/99"}))
        with pytest.raises(ConfigurationError, match="schema"):
            load_config(str(path))

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("DYNROUTE_SEED", "123")
        config = load_config(None)
        assert config["data"]["seed"] == 123
        assert config["train"]["seed"] == 123

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("DYNROUTE_SEED", "abc")
        with pytest.raises(ConfigurationError, match="DYNROUTE_SEED"):
            load_config(None)


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"train": {"epochs": "abc"}}, "train.epochs"),
        ({"data": {"scale_mix": 3}}, "data.scale_mix"),
        ([1, 2], "document"),
        ({"budget": {"strategy": "nope"}}, "strategy"),
        ({"train": {"base_lr": -0.01, "momentum": -3}}, "base_lr"),
        ({"train": {"epochs": 2.5}}, "train.epochs"),
        ({"train": {"batch_size": True}}, "train.batch_size"),
        ({"train": {"lr_drop_epochs": [8.0]}}, "train.lr_drop_epochs"),
        ({"supernet": {"channels_per_scale": [8, 16, 32, True]}}, "supernet.channels_per_scale"),
        ({"data": {"scale_mix": [[[1, 0, 0, 1.5], 1.0]]}}, "data.scale_mix"),
        ({"head": {"tower_depth": False}}, "head.tower_depth"),
        ({"train": {"pretrain_epochs": -1}}, "pretrain_epochs"),
        # keys of removed settings
        ({"train": {"router_lr_scale": 1.0}}, "train.router_lr_scale"),
        ({"budget": {"loss_buffer_len": 100}}, "budget.loss_buffer_len"),
        # out-of-range values (new rows go last: the ids above stay put)
        ({"data": {"num_images": -1}}, "num_images"),
        ({"data": {"num_images": 0}}, "num_images"),
        ({"data": {"noise": -0.5}}, "noise"),
        ({"train": {"weight_decay": -1e-4}}, "weight_decay"),
        ({"train": {"ramp_steps": -1}}, "ramp_steps"),
        ({"train": {"clip_grad_norm": -1.0}}, "clip_grad_norm"),
        ({"train": {"lr_warmup_steps": -1}}, "lr_warmup_steps"),
        ({"train": {"regularizer_warmup_epochs": -1}}, "regularizer_warmup_epochs"),
        # non-finite floats (json.dumps writes them as NaN and Infinity)
        ({"train": {"lambda1": math.nan}}, "train.lambda1"),
        ({"train": {"lambda2": math.inf}}, "train.lambda2"),
        ({"supernet": {"gate_threshold": math.nan}}, "supernet.gate_threshold"),
        ({"train": {"base_lr": math.inf}}, "train.base_lr"),
        ({"data": {"noise": math.inf}}, "data.noise"),
        ({"train": {"weight_decay": math.inf}}, "train.weight_decay"),
        ({"train": {"clip_grad_norm": math.inf}}, "train.clip_grad_norm"),
        ({"data": {"scale_boundaries": [8, math.nan, 32]}}, "data.scale_boundaries"),
        ({"data": {"scale_mix": [[[1, 0, 0, 0], math.nan]]}}, "data.scale_mix"),
        # keys of settings with one working value, now constants
        ({"data": {"num_classes": 2}}, "data.num_classes"),
        ({"head": {"num_classes": 2}}, "head.num_classes"),
        ({"supernet": {"in_channels": 1}}, "supernet.in_channels"),
        # negative seeds, which numpy's generators refuse
        ({"data": {"seed": -1}}, "data.seed"),
        ({"train": {"seed": -3}}, "train.seed"),
        # a head without towers, and a threshold no tanh gate reaches
        ({"head": {"tower_depth": 0}}, "head.tower_depth"),
        ({"supernet": {"gate_threshold": 2.0}}, "gate_threshold"),
        ({"supernet": {"gate_threshold": 0.0}}, "gate_threshold"),
        # channel counts below 1, which pass the doubling check
        ({"supernet": {"channels_per_scale": [0, 0, 0, 0]}}, "channels_per_scale"),
        ({"supernet": {"channels_per_scale": [-1, -2, -4, -8]}}, "channels_per_scale"),
    ],
)
def test_bad_config_exit_2_before_output(tmp_path, capsys, overrides, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(overrides))
    out = tmp_path / "run"
    code = main(["train", "--config", str(path), "--data", str(tmp_path / "corpus"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, env_seed, key",
    [(["--seed", "-1"], None, "data.seed"), ([], "-2", "DYNROUTE_SEED")],
    ids=["flag", "env"],
)
def test_negative_seed_exit_2_before_output(tmp_path, capsys, monkeypatch, argv, env_seed, key):
    if env_seed is not None:
        monkeypatch.setenv("DYNROUTE_SEED", env_seed)
    out = tmp_path / "corpus"
    code = main(["gen-data", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "box",
    [[2, 2, float("nan"), 4, 0], [2, 2, 4, 4, 7]],
    ids=["nan-width", "class-7"],
)
def test_train_on_bad_annotations_exit_2_before_output(tmp_path, capsys, tiny_config_path, box):
    data = tmp_path / "corpus"
    assert main(["gen-data", "--config", tiny_config_path, "--out", str(data)]) == 0
    lines = (data / "annotations.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    record["boxes"][0] = box
    lines[0] = json.dumps(record)  # writes NaN for a nan float
    (data / "annotations.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "run"
    code = main(["train", "--config", tiny_config_path, "--data", str(data), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "malformed annotations" in err
    assert not out.exists()


@pytest.mark.parametrize("corpus", ["40x40", "empty", "0x0"])
def test_train_on_a_corpus_the_spec_cannot_run_exit_2_before_output(tmp_path, capsys, corpus):
    """Images whose side is not a multiple of the default 4-scale net's 64,
    no images at all, or images without pixels: exit 2 with one error
    line before --out exists."""
    data = tmp_path / "corpus"
    if corpus == "empty":
        (data / "images").mkdir(parents=True)
        (data / "annotations.jsonl").write_text("")
    elif corpus == "0x0":
        (data / "images").mkdir(parents=True)
        (data / "images" / "img_00000.pgm").write_bytes(b"P5\n0 0\n255\n")
        (data / "annotations.jsonl").write_text('{"image_id": 0, "boxes": []}\n')
    else:
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"data": {"image_size": 40, "num_images": 4}}))
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    code = main(["train", "--data", str(data), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert {"40x40": "divisible by 64", "empty": "corpus is empty", "0x0": "no pixels"}[corpus] in err
    assert not out.exists()


class TestCommands:
    def test_gen_data_writes_corpus(self, tiny_config_path, tmp_path):
        out = tmp_path / "corpus"
        code = main(["gen-data", "--config", tiny_config_path, "--out", str(out)])
        assert code == 0
        assert (out / "annotations.jsonl").exists()
        assert len(list((out / "images").glob("*.pgm"))) == 16

    def test_gen_data_rerun_identical_bytes(self, tiny_config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", tiny_config_path, "--out", str(a)]) == 0
        assert main(["gen-data", "--config", tiny_config_path, "--out", str(b)]) == 0
        assert (a / "annotations.jsonl").read_bytes() == (b / "annotations.jsonl").read_bytes()
        for f in sorted((a / "images").glob("*.pgm")):
            assert f.read_bytes() == (b / "images" / f.name).read_bytes()

    def test_gen_data_seed_flag_changes_corpus(self, tiny_config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-data", "--config", tiny_config_path, "--out", str(a)])
        main(["gen-data", "--config", tiny_config_path, "--out", str(b), "--seed", "99"])
        assert (a / "annotations.jsonl").read_bytes() != (b / "annotations.jsonl").read_bytes()
        assert len(list((b / "images").glob("*.pgm"))) == 16

    def test_gen_data_unrealizable_pattern_exit_2(self, tmp_path):
        cfg = {
            "schema": "dynroute-config/1",
            "data": {"image_size": 64, "scale_boundaries": [8, 16, 200]},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_train_outputs(self, pipeline):
        ckpt = pipeline["run"] / "checkpoint.ckpt"
        log = pipeline["run"] / "train_log.jsonl"
        assert ckpt.exists() and log.exists()
        records = [json.loads(l) for l in log.read_text().splitlines()]
        # 16 images / batch 4: one pretrain epoch (epoch 0) + one routed epoch
        assert len(records) == 8
        assert {r["epoch"] for r in records} == {0, 1}
        for rec in records:
            assert set(rec) == {"step", "epoch", "lr", "L_det", "L_global", "L_local", "L_tot", "mean_Cnet_ratio"}
            assert rec["L_global"] == 0.0  # pretrain + epoch 1 rule

    def test_eval_report(self, pipeline, tmp_path):
        report = tmp_path / "report.csv"
        code = main([
            "eval", "--checkpoint", str(pipeline["run"] / "checkpoint.ckpt"),
            "--data", str(pipeline["data"]), "--report", str(report),
        ])
        assert code == 0
        text = report.read_text()
        assert "mean_madds,max_madds,min_madds,std_madds" in text
        assert text.startswith("sample_id,pattern,num_intervals,C_net,C_tot,ratio")

    def test_eval_empty_corpus_exit_2(self, pipeline, tmp_path):
        empty = tmp_path / "empty"
        (empty / "images").mkdir(parents=True)
        (empty / "annotations.jsonl").write_text("")
        code = main([
            "eval", "--checkpoint", str(pipeline["run"] / "checkpoint.ckpt"),
            "--data", str(empty), "--report", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    def test_eval_deterministic_across_reruns(self, pipeline, tmp_path):
        paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for p in paths:
            assert main([
                "eval", "--checkpoint", str(pipeline["run"] / "checkpoint.ckpt"),
                "--data", str(pipeline["data"]), "--report", str(p),
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_cost_report(self, pipeline, tmp_path, capsys):
        out = tmp_path / "costs.csv"
        capsys.readouterr()
        code = main([
            "cost-report", "--checkpoint", str(pipeline["run"] / "checkpoint.ckpt"),
            "--data", str(pipeline["data"]), "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sample_id,C_net,C_tot,ratio"
        assert lines[-2] == "aggregate,mean,max,min,std"
        model, _ = trainer.load_model(pipeline["run"] / "checkpoint.ckpt")
        table = compile_cost_table(model.spec, 64, 64)
        assert table.router_madds > 0
        assert f"routers (outside C_net): {table.router_madds:.0f} MAdds" in capsys.readouterr().out

    def test_cost_report_costs_equal_eval_costs(self, pipeline, tmp_path):
        args = ["--checkpoint", str(pipeline["run"] / "checkpoint.ckpt"), "--data", str(pipeline["data"])]
        assert main(["cost-report", *args, "--out", str(tmp_path / "costs.csv")]) == 0
        assert main(["eval", *args, "--report", str(tmp_path / "report.csv")]) == 0

        def c_net(path, rows):
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            return [line.split(",")[header.index("C_net")] for line in lines[1 : 1 + rows]]

        assert c_net(tmp_path / "costs.csv", 16) == c_net(tmp_path / "report.csv", 16)

    def test_export_route_dot_parses(self, pipeline, tmp_path):
        out = tmp_path / "route.dot"
        code = main([
            "export-route", "--checkpoint", str(pipeline["run"] / "checkpoint.ckpt"),
            "--image", str(pipeline["data"] / "images" / "img_00000.pgm"),
            "--format", "dot", "--out", str(out),
        ])
        assert code == 0
        _assert_valid_dot(out.read_text())

    def test_export_route_svg(self, pipeline, tmp_path):
        out = tmp_path / "route.svg"
        code = main([
            "export-route", "--checkpoint", str(pipeline["run"] / "checkpoint.ckpt"),
            "--image", str(pipeline["data"] / "images" / "img_00000.pgm"),
            "--format", "svg", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert "<circle" in text

    def test_export_route_unknown_format_exit_2(self, pipeline, tmp_path):
        code = main([
            "export-route", "--checkpoint", str(pipeline["run"] / "checkpoint.ckpt"),
            "--image", str(pipeline["data"] / "images" / "img_00000.pgm"),
            "--format", "png", "--out", str(tmp_path / "x.png"),
        ])
        assert code == 2

    @staticmethod
    def _run_on_checkpoint(pipeline, tmp_path, capsys, command, arrays, meta):
        """Exit code and stderr of command on a checkpoint of arrays."""
        ckpt = tmp_path / "edited.ckpt"
        trainer.save_checkpoint(ckpt, arrays, meta)
        data = {
            "eval": ["--data", str(pipeline["data"]), "--report", str(tmp_path / "r.csv")],
            "cost-report": ["--data", str(pipeline["data"]), "--out", str(tmp_path / "c.csv")],
            "export-route": ["--image", str(pipeline["data"] / "images" / "img_00000.pgm"),
                             "--out", str(tmp_path / "r.dot")],
        }[command]
        capsys.readouterr()
        code = main([command, "--checkpoint", str(ckpt), *data])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("extra", ["node.99.0.conv.pw_w", "head.bogus"])
    @pytest.mark.parametrize("command", ["eval", "cost-report", "export-route"])
    def test_checkpoint_with_an_unknown_array_exit_2(self, pipeline, tmp_path, capsys, extra, command):
        arrays, meta = trainer.load_checkpoint(pipeline["run"] / "checkpoint.ckpt")
        arrays[extra] = np.zeros(3)
        code, err = self._run_on_checkpoint(pipeline, tmp_path, capsys, command, arrays, meta)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and extra in err

    @pytest.mark.parametrize("name, value", [("node.1.0.router.fc_b", np.nan), ("head.cls_pred.b", np.inf)])
    @pytest.mark.parametrize("command", ["eval", "cost-report", "export-route"])
    def test_checkpoint_with_a_non_finite_parameter_exit_2(self, pipeline, tmp_path, capsys, name, value, command):
        arrays, meta = trainer.load_checkpoint(pipeline["run"] / "checkpoint.ckpt")
        arrays[name] = arrays[name].copy()
        arrays[name][0] = value
        code, err = self._run_on_checkpoint(pipeline, tmp_path, capsys, command, arrays, meta)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and f"{name} is not finite" in err

    @pytest.mark.parametrize("kept", [
        lambda key: key != "lr_warmup_steps",
        lambda key: key == "seed",
    ], ids=["no-lr_warmup_steps", "seed-only"])
    def test_checkpoint_without_train_settings_evaluates(self, pipeline, tmp_path, capsys, kept):
        """Rebuilding a model reads train.seed and no other train key, so
        a checkpoint whose config lacks one still evaluates, byte for byte."""
        arrays, meta = trainer.load_checkpoint(pipeline["run"] / "checkpoint.ckpt")
        reports = []
        for name, train in (("full", meta["config"]["train"]),
                            ("trimmed", {k: v for k, v in meta["config"]["train"].items() if kept(k)})):
            (tmp_path / name).mkdir()
            edited = {**meta, "config": {**meta["config"], "train": train}}
            code, err = self._run_on_checkpoint(pipeline, tmp_path / name, capsys, "eval", arrays, edited)
            assert (code, err) == (0, "")
            reports.append((tmp_path / name / "r.csv").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", ["eval", "cost-report", "export-route"])
    def test_image_without_pixels_exit_2(self, pipeline, tmp_path, capsys, command):
        """A 0x0 PGM is malformed: one error line, no output written."""
        (tmp_path / "images").mkdir()
        (tmp_path / "images" / "img_00000.pgm").write_bytes(b"P5\n0 0\n255\n")
        (tmp_path / "annotations.jsonl").write_text('{"image_id": 0, "boxes": []}\n')
        out = tmp_path / "out.txt"
        data = {
            "eval": ["--data", str(tmp_path), "--report", str(out)],
            "cost-report": ["--data", str(tmp_path), "--out", str(out)],
            "export-route": ["--image", str(tmp_path / "images" / "img_00000.pgm"), "--out", str(out)],
        }[command]
        capsys.readouterr()
        code = main([command, "--checkpoint", str(pipeline["run"] / "checkpoint.ckpt"), *data])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "no pixels" in err
        assert not out.exists()

    def test_missing_checkpoint_exit_2(self, tmp_path):
        code = main([
            "eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
            "--data", str(tmp_path), "--report", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--checkpoint"),
        ("eval", "--report"),
        ("export-route", "--image"),
        ("gen-data", "--config"),
    ])
    def test_directory_for_a_file_exit_2(self, pipeline, tmp_path, capsys, command, flag):
        args = {
            "eval": {"--checkpoint": str(pipeline["run"] / "checkpoint.ckpt"),
                     "--data": str(pipeline["data"]), "--report": str(tmp_path / "r.csv")},
            "export-route": {"--checkpoint": str(pipeline["run"] / "checkpoint.ckpt"),
                             "--image": str(pipeline["data"] / "images" / "img_00000.pgm"),
                             "--out": str(tmp_path / "route.dot")},
            "gen-data": {"--config": str(pipeline["config"]), "--out": str(tmp_path / "corpus")},
        }[command]
        args[flag] = str(tmp_path)
        capsys.readouterr()
        code = main([command, *(part for item in args.items() for part in item)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--report"),
        ("cost-report", "--out"),
        ("export-route", "--out"),
    ])
    def test_bad_output_path_exit_2_before_loading(
        self, pipeline, tmp_path, capsys, monkeypatch, command, flag
    ):
        """A directory given as the output file fails before the model loads."""
        loads = []
        load_model = trainer.load_model

        def recording_load_model(path):
            loads.append(path)
            return load_model(path)

        monkeypatch.setattr(trainer, "load_model", recording_load_model)
        if command == "export-route":
            source = ["--image", str(pipeline["data"] / "images" / "img_00000.pgm")]
        else:
            source = ["--data", str(pipeline["data"])]
        capsys.readouterr()
        code = main([
            command, "--checkpoint", str(pipeline["run"] / "checkpoint.ckpt"),
            *source, flag, str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert loads == []


class TestDiagramEmitters:
    def _record(self, all_open: bool):
        from dynroute.autodiff import Tensor
        from dynroute.supernet import build_supernet

        config = load_config(None)
        config["supernet"]["num_layers"] = 3
        config["supernet"]["channels_per_scale"] = [4, 8, 16, 32]
        spec = supernet_spec_from(config)
        net = build_supernet(spec, seed=0)
        gate = np.ones(3) if all_open else np.zeros(3)
        forced = {n: gate for n in net.nodes}
        imgs = Tensor(np.zeros((1, 1, 64, 64)))
        _, record = net.forward(imgs, mode="infer", forced_gates=forced)
        return spec, record

    def test_all_open_draws_complete_trellis(self):
        spec, record = self._record(all_open=True)
        dot = route_to_dot(spec, record)
        _assert_valid_dot(dot)
        edge_count = dot.count("->")
        valid_gates = sum(int(m.sum()) for m in record.masks.values())
        assert edge_count == valid_gates + 1  # plus the stem edge
        assert "gray" not in dot

    def test_all_closed_stem_only(self):
        spec, record = self._record(all_open=False)
        dot = route_to_dot(spec, record)
        _assert_valid_dot(dot)
        # stem edge remains; no routed edges
        assert dot.count("->") == 1
        assert dot.count("fillcolor=gray80") == len(record.node_ids)

    def test_svg_well_formed_xml(self):
        import xml.etree.ElementTree as ET

        spec, record = self._record(all_open=True)
        svg = route_to_svg(spec, record)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")


_DOT_NODE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*( \[[^\]]*\])?;$")
_DOT_EDGE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]* -> [A-Za-z_][A-Za-z0-9_]*( \[[^\]]*\])?;$")
_DOT_ATTR = re.compile(r"^[A-Za-z_]+=[A-Za-z0-9]+;$")


def _assert_valid_dot(text: str) -> None:
    """Round-trip parse under a minimal DOT statement grammar."""
    lines = [l.strip() for l in text.strip().splitlines()]
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert (
            _DOT_NODE.match(line) or _DOT_EDGE.match(line) or _DOT_ATTR.match(line)
        ), f"unparseable DOT statement: {line!r}"
