import json
import hashlib
from pathlib import Path

import pytest

from qadapt import training, workers
from qadapt.cli import main
from qadapt.datagen import load_squad_json
from qadapt.losses import ContrastiveConfig, KernelConfig
from qadapt.model import EncoderConfig, SpanModel, config_to_json
from qadapt.training import TrainConfig


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


SMALL_SPEC = {
    "vocab_words": 20,
    "n_source": 16,
    "n_target_contexts": 8,
    "qa_per_target_context": 1,
    "context_words": [5, 7],
}


def train_config_dict(source, synthetic=None, dev=None, **overrides):
    cfg = TrainConfig(
        learning_rate=1e-3, epochs=1, batch_size=4,
        mixing_policy="mixed" if synthetic else "source-only",
        seed=1, max_answer_len=32, eval_cadence=1, grad_clip=1.0,
        contrastive=ContrastiveConfig(beta=0.001, noise_sigma=0.0,
                                      kernel=KernelConfig(bandwidths=(1.0, 4.0))),
        encoder=EncoderConfig(vocab_size=258, hidden_dim=16, num_layers=1,
                              num_heads=2, ff_dim=32, max_len=96, seed=2),
    )
    d = config_to_json(cfg)
    d.update(overrides)
    d["data"] = {"source": str(source)}
    if synthetic:
        d["data"]["synthetic"] = str(synthetic)
    if dev:
        d["data"]["dev"] = {k: str(v) for k, v in dev.items()}
    return d


@pytest.fixture()
def synth_dir(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMALL_SPEC))
    out = tmp_path / "domains"
    assert main(["synth", "--spec", str(spec), "--seed", "3", "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_writes_domain_files_and_manifest(self, synth_dir):
        for name in ("source.json", "target_contexts.jsonl", "target_gold.json", "manifest.json"):
            assert (synth_dir / name).exists()
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        for name, checksum in manifest["artifacts"].items():
            if checksum is not None:
                assert sha(synth_dir / name) == checksum

    def test_invalid_spec_exits_1_without_partial_files(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"vocab_words": 1}))
        out = tmp_path / "never"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        {"n_source": 1.5}, {"qa_per_target_context": 2.0}, {"vocab_words": 2.5},
        {"n_source": True}, {"context_words": [5, 7.0]}, {"source_answer_mean": float("nan")},
        {"target_answer_mean": float("inf")}, {"vocab_shift": "0.5"},
    ])
    def test_wrong_number_type_in_spec_exits_1(self, tmp_path, capsys, override):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SMALL_SPEC, **override}))
        out = tmp_path / "never"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "invalid domain spec" in err
        assert not out.exists()

    def test_manifest_records_the_blas_pin(self, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SMALL_SPEC))
        monkeypatch.setattr(workers, "BLAS_PINNED", False)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["blas_pinned"] is False

    def test_same_seed_byte_identical(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SMALL_SPEC))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synth", "--spec", str(spec), "--seed", "9", "--out", str(out)]) == 0
            outs.append(out)
        for name in ("source.json", "target_contexts.jsonl", "target_gold.json", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_does_not_mutate_inputs(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SMALL_SPEC))
        before = spec.read_bytes()
        main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert spec.read_bytes() == before


class TestGenerate:
    def test_lm_filtered_dataset_with_cap(self, synth_dir, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--contexts", str(synth_dir / "target_contexts.jsonl"),
                     "--k", "5", "--seed", "4", "--out", str(out)]) == 0
        ds = load_squad_json(out / "synthetic.json")
        per_context = {}
        for s in ds.samples:
            per_context[s.context] = per_context.get(s.context, 0) + 1
        assert max(per_context.values()) <= 5
        assert len(per_context) <= 8

    def test_no_filters_dumps_raw_candidates(self, synth_dir, tmp_path):
        out = tmp_path / "raw"
        assert main(["generate", "--contexts", str(synth_dir / "target_contexts.jsonl"),
                     "--filters", "none", "--k", "2", "--out", str(out)]) == 0
        lines = (out / "candidates.jsonl").read_text().splitlines()
        assert len(lines) >= 8  # 4*k proposals per context
        rec = json.loads(lines[0])
        assert {"context_id", "question", "answer", "answer_start",
                "token_probs", "lm_score"} == set(rec)

    def test_roundtrip_without_checkpoint_is_usage_error(self, synth_dir, tmp_path):
        out = tmp_path / "x"
        code = main(["generate", "--contexts", str(synth_dir / "target_contexts.jsonl"),
                     "--filters", "lm,roundtrip", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_rerun_identical_dataset(self, synth_dir, tmp_path):
        outs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            assert main(["generate", "--contexts", str(synth_dir / "target_contexts.jsonl"),
                         "--k", "3", "--seed", "11", "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "synthetic.json").read_bytes() == (outs[1] / "synthetic.json").read_bytes()


class TestTrainEvalPca:
    @pytest.fixture()
    def run_dir(self, synth_dir, tmp_path):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(train_config_dict(
            synth_dir / "source.json",
            dev={"target": synth_dir / "target_gold.json"},
        )))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        return out

    def test_train_run_dir_layout(self, run_dir):
        for name in ("config.json", "steps.jsonl", "metrics.json", "checkpoint.bin",
                     "report.json", "manifest.json"):
            assert (run_dir / name).exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["artifacts"]["report.json"] is None  # carries wall-clock
        for name, checksum in manifest["artifacts"].items():
            if checksum is not None:
                assert sha(run_dir / name) == checksum

    def test_beta_zero_vs_beta_logs(self, synth_dir, tmp_path):
        cfg_path = tmp_path / "t.json"
        cfg_path.write_text(json.dumps(train_config_dict(synth_dir / "source.json")))
        out0, outb = tmp_path / "r0", tmp_path / "rb"
        assert main(["train", "--config", str(cfg_path), "--beta", "0", "--out", str(out0)]) == 0
        assert main(["train", "--config", str(cfg_path), "--beta", "0.001", "--out", str(outb)]) == 0
        rows0 = [json.loads(l) for l in (out0 / "steps.jsonl").read_text().splitlines()]
        rowsb = [json.loads(l) for l in (outb / "steps.jsonl").read_text().splitlines()]
        for r in rows0:
            assert r["loss_total"] == r["loss_ce"]
        for r in rowsb:
            assert abs(r["loss_total"] - (r["loss_ce"] + 0.001 * r["loss_con"])) <= 1e-12
        # identical seed and data: the first step sees identical parameters
        assert rows0[0]["loss_ce"] == rowsb[0]["loss_ce"]
        assert rows0[0]["loss_con"] == rowsb[0]["loss_con"]

    def test_bad_config_lists_fields_and_exits_1(self, synth_dir, tmp_path, capsys):
        d = train_config_dict(synth_dir / "source.json")
        d["learning_rate"] = -5.0
        d["grad_clip"] = 0.0
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(d))
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "learning_rate" in err and "grad_clip" in err

    def test_eval_writes_metrics_report(self, synth_dir, run_dir, tmp_path):
        out = tmp_path / "metrics"
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--dataset", str(synth_dir / "source.json"), "--out", str(out)]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert {"em", "f1", "n", "samples"} <= set(report)
        assert report["n"] == len(report["samples"])

    def test_eval_missing_checkpoint_is_runtime_error(self, synth_dir, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "none.bin"),
                     "--dataset", str(synth_dir / "source.json")]) == 2

    @pytest.mark.parametrize("damage", ["truncate", "nan"])
    def test_eval_bad_checkpoint_is_one_line_runtime_error(self, synth_dir, run_dir, tmp_path,
                                                           capsys, damage):
        from qadapt.model import SpanModel
        bad = tmp_path / "bad.bin"
        if damage == "truncate":
            bad.write_bytes((run_dir / "checkpoint.bin").read_bytes()[:9])
        else:
            model = SpanModel.load(run_dir / "checkpoint.bin")
            model.params["span.b"].data[:] = float("nan")
            model.save(bad)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(bad),
                     "--dataset", str(synth_dir / "source.json")]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_diverged_train_keeps_config_and_finite_steps(self, synth_dir, tmp_path):
        cfg_path = tmp_path / "huge_lr.json"
        cfg_path.write_text(json.dumps(train_config_dict(
            synth_dir / "source.json", learning_rate=1e300)))
        out = tmp_path / "diverged"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 3
        assert json.loads((out / "config.json").read_text())["learning_rate"] == 1e300
        rows = [json.loads(l) for l in (out / "steps.jsonl").read_text().splitlines()]
        assert rows and [r["step"] for r in rows] == list(range(len(rows)))
        assert all(abs(r["loss_total"]) < float("inf") for r in rows)
        assert not (out / "checkpoint.bin").exists()

    def test_pca_dump_rows(self, synth_dir, run_dir, tmp_path):
        out = tmp_path / "proj"
        assert main(["pca", "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--dataset", str(synth_dir / "source.json"),
                     "--max-samples", "4", "--out", str(out)]) == 0
        lines = (out / "pca.tsv").read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[2].split("\t")
        assert header == ["x", "y", "label", "sample_id"]
        labels = set()
        for line in lines[3:]:
            x, y, label, _ = line.split("\t")
            float(x), float(y)  # plain numbers any plotting tool can read
            labels.add(label)
        assert labels <= {"answer", "question", "other"}

    def test_grid_table(self, synth_dir, tmp_path):
        cfg_path = tmp_path / "g.json"
        cfg_path.write_text(json.dumps(train_config_dict(
            synth_dir / "source.json",
            dev={"sel": synth_dir / "source.json"},
            epochs=1,
        )))
        out = tmp_path / "grid"
        assert main(["grid", "--config", str(cfg_path), "--beta", "0.01,0.001",
                     "--sigma", "0", "--out", str(out)]) == 0
        table = json.loads((out / "grid.json").read_text())
        assert len(table["cells"]) == 2
        assert {"beta", "sigma"} <= set(table["best"])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_grid_with_every_cell_diverged_exits_3(self, synth_dir, tmp_path, capsys):
        cfg_path = tmp_path / "huge_lr_grid.json"
        cfg_path.write_text(json.dumps(train_config_dict(
            synth_dir / "source.json", dev={"sel": synth_dir / "source.json"},
            learning_rate=1e300)))
        assert main(["grid", "--config", str(cfg_path), "--beta", "0.01", "--sigma", "0",
                     "--out", str(tmp_path / "grid")]) == 3
        err = capsys.readouterr().err
        assert "diverged: every grid cell diverged" in err and "-1" not in err

    def test_grid_default_flags_cover_six_cells(self, synth_dir, tmp_path):
        # default flag grid: three weights x two noise scales, all logged
        cfg_path = tmp_path / "g6.json"
        cfg_path.write_text(json.dumps(train_config_dict(
            synth_dir / "source.json",
            dev={"sel": synth_dir / "source.json"},
            epochs=1,
        )))
        out = tmp_path / "grid6"
        assert main(["grid", "--config", str(cfg_path), "--out", str(out)]) == 0
        table = json.loads((out / "grid.json").read_text())
        cells = {(c["beta"], c["sigma"]) for c in table["cells"]}
        assert cells == {(b, s) for b in (0.1, 0.01, 0.001) for s in (0.0, 0.01)}
        assert all(c["status"] == "ok" for c in table["cells"])


class TestEmptyEvaluationSetExits2BeforeTraining:
    @pytest.fixture()
    def empty(self, tmp_path, monkeypatch):
        def no_step(*args):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(training, "_half_step", no_step)
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"data": []}))
        return path

    def test_train_with_an_empty_dev_set(self, synth_dir, tmp_path, capsys, empty):
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(train_config_dict(
            synth_dir / "source.json", dev={"target": synth_dir / "target_gold.json",
                                            "empty": empty})))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: dev set 'empty' has no samples\n"
        assert not out.exists()

    def test_grid_with_an_empty_selection_set(self, synth_dir, tmp_path, capsys, empty):
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(train_config_dict(synth_dir / "source.json")))
        out = tmp_path / "grid"
        assert main(["grid", "--config", str(cfg_path), "--dataset", str(empty),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: selection set has no samples\n"
        assert not out.exists()


class TestMalformedInputsExitWithoutTraceback:
    QA = {"context": "ab cd", "qas": [{"question": "q", "id": "x",
                                       "answers": [{"text": "cd", "answer_start": 3}]}]}

    @staticmethod
    def one_line_error(capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("doc", [
        {"data": 5},
        {"data": [{"paragraphs": [dict(QA, qas=[dict(QA["qas"][0], answers=[
            {"text": "cd", "answer_start": None}])])]}]},
        {"data": [{"paragraphs": [dict(QA, qas=[dict(QA["qas"][0], answers=5)])]}]},
        {"data": [{"paragraphs": [dict(QA, context=5)]}]},
        b'{"data": "caf\xe9"}',
    ])
    def test_eval_on_malformed_dataset_exits_2(self, tmp_path, capsys, doc):
        from qadapt.model import SpanModel
        ckpt = tmp_path / "model.bin"
        SpanModel(EncoderConfig(hidden_dim=8, num_layers=1, num_heads=2, ff_dim=8,
                                max_len=32)).save(ckpt)
        dataset = tmp_path / "dataset.json"
        dataset.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                     "--out", str(tmp_path / "out")]) == 2
        assert len(self.one_line_error(capsys).strip().splitlines()) == 1

    @pytest.mark.parametrize("content", [
        b'{"context": 5}\n', b'{"context": "caf\xe9"}\n',
        b'{"context": "alpha beta \\ud800 gamma delta"}\n',  # a lone surrogate
    ])
    def test_generate_on_malformed_contexts_exits_2(self, tmp_path, capsys, content):
        contexts = tmp_path / "contexts.jsonl"
        contexts.write_bytes(content)
        capsys.readouterr()
        assert main(["generate", "--contexts", str(contexts), "--k", "2",
                     "--out", str(tmp_path / "out")]) == 2
        assert len(self.one_line_error(capsys).strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reader, code", [
        ("spec", 1), ("config", 1), ("dataset", 2), ("contexts", 2), ("checkpoint", 2)])
    def test_deeply_nested_json_exits_without_traceback(self, tmp_path, capsys, reader, code):
        import struct
        from qadapt.model import CHECKPOINT_MAGIC, SpanModel
        deep = "[" * 100000
        (tmp_path / "deep.json").write_text(deep)
        ckpt = tmp_path / "model.bin"
        SpanModel(EncoderConfig(hidden_dim=8, num_layers=1, num_heads=2, ff_dim=8,
                                max_len=32)).save(ckpt)
        (tmp_path / "deep.bin").write_bytes(
            CHECKPOINT_MAGIC + struct.pack("<I", len(deep)) + deep.encode())
        argv = {
            "spec": ["synth", "--spec", "deep.json"],
            "config": ["train", "--config", "deep.json"],
            "dataset": ["eval", "--checkpoint", "model.bin", "--dataset", "deep.json"],
            "contexts": ["generate", "--contexts", "deep.json"],
            "checkpoint": ["eval", "--checkpoint", "deep.bin", "--dataset", "deep.json"],
        }[reader]
        argv = [str(tmp_path / a) if a.startswith(("deep", "model")) else a for a in argv]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out")]) == code
        self.one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth --spec", "train --config"])
    def test_undecodable_spec_or_config_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe")
        capsys.readouterr()
        assert main(command.split() + [str(path), "--out", str(tmp_path / "out")]) == 1
        assert "cannot read" in self.one_line_error(capsys)

    def test_train_on_top_level_list_config_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1, 2]")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "must be a JSON object" in self.one_line_error(capsys)

    @pytest.mark.parametrize("data", [
        {"source": "source.json", "dev": ["x.json"]},
        {"source": "source.json", "dev": {"target": 7}},
        {"source": "source.json", "dev": None},
        {"source": ["a"]},
        {"source": 12345},
        {"source": 0},
        {"source": "source.json", "synthetic": 5},
    ])
    def test_train_on_malformed_data_section_exits_1(self, tmp_path, capsys, data,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "source.json").write_text(json.dumps({"data": [{"paragraphs": [self.QA]}]}))
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(dict(train_config_dict("source.json"), data=data)))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "data." in self.one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_eval_scores_a_lone_surrogate_context_zero(self, tmp_path, capsys):
        from qadapt.model import SpanModel
        ckpt = tmp_path / "model.bin"
        SpanModel(EncoderConfig(hidden_dim=8, num_layers=1, num_heads=2, ff_dim=8,
                                max_len=32)).save(ckpt)
        bad = dict(self.QA, context="ab cd \ud800", qas=[dict(self.QA["qas"][0], id="bad")])
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps({"data": [{"paragraphs": [self.QA, bad]}]}))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                     "--out", str(tmp_path / "out")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "metrics.json").read_text())
        scored = {r["sample_id"]: r for r in report["samples"]}
        assert report["n"] == 2
        assert scored["bad"]["em"] == 0 and scored["bad"]["f1"] == 0.0
        assert "UTF-8" in scored["bad"]["note"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("command", ["eval", "pca", "generate"])
def test_overflowing_forward_pass_is_one_line_runtime_error(synth_dir, tmp_path, capsys,
                                                            command):
    """A checkpoint whose feed-forward weights are finite but huge (1e200)
    loads, and its first forward pass overflows: exit 2 with one line, as
    for any runtime failure, not a traceback; only a training step's
    divergence exits 3."""
    model = SpanModel(EncoderConfig(hidden_dim=16, num_layers=1, num_heads=2, ff_dim=32,
                                    max_len=96, seed=2))
    for name in ("layer0.ff.w1", "layer0.ff.w2"):
        model.params[name].data[:] = 1e200
    ckpt = tmp_path / "huge.bin"
    model.save(ckpt)
    gold = str(synth_dir / "target_gold.json")
    argv = {"eval": ["--dataset", gold],
            "pca": ["--dataset", gold],
            "generate": ["--contexts", str(synth_dir / "target_contexts.jsonl"),
                         "--filters", "roundtrip"]}[command]
    capsys.readouterr()
    code = main([command, "--checkpoint", str(ckpt), *argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err


class TestNonFiniteOrNegativeNumbersExit1:
    """A NaN, infinite or negative ``--beta`` or ``--sigma`` is a usage
    error: exit 1, one message, no run directory. The same values in a
    config file are cases of tests/test_config.py."""

    @staticmethod
    def assert_usage_error(capsys, argv, out):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--beta=-1"], ["--beta=nan"], ["--beta=0.1,inf"],
                                       ["--sigma=-0.01"], ["--sigma=nan"]])
    def test_grid_rejects_before_reading_any_dataset(self, tmp_path, capsys, flags):
        # the named datasets do not exist: reading one would be a runtime error, exit 2
        cfg_path = tmp_path / "g.json"
        cfg_path.write_text(json.dumps(train_config_dict(
            tmp_path / "missing.json", dev={"sel": tmp_path / "missing_dev.json"})))
        self.assert_usage_error(capsys, ["grid", "--config", str(cfg_path)] + flags,
                                tmp_path / "grid")

    @pytest.mark.parametrize("flags", [["--beta", "nan"], ["--sigma", "-1"], ["--beta", "inf"]])
    def test_train_override_rejected(self, synth_dir, tmp_path, capsys, flags):
        cfg_path = tmp_path / "t.json"
        cfg_path.write_text(json.dumps(train_config_dict(synth_dir / "source.json")))
        self.assert_usage_error(capsys, ["train", "--config", str(cfg_path)] + flags,
                                tmp_path / "run")


def test_train_with_an_unallocatable_encoder_exits_2(synth_dir, tmp_path, capsys):
    """An encoder too large to allocate is a runtime error, exit 2 with one
    line. Its 10^16 position rows of 16 float64 need 1.28e18 bytes, more than
    any 64-bit address space in use (2^57 bytes), so the allocation fails
    without touching memory."""
    d = train_config_dict(synth_dir / "source.json")
    d["encoder"]["max_len"] = 10**16
    cfg_path = tmp_path / "t.json"
    cfg_path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1



@pytest.mark.parametrize("command", ["train", "grid"])
def test_vocabulary_too_small_for_the_data_exits_2(synth_dir, tmp_path, capsys, command):
    """A vocabulary that the data's token ids overflow fails every sample
    with a runtime error: exit 2 for ``train``, and for ``grid``, whose
    cells all fail with it, none of them by divergence."""
    d = train_config_dict(synth_dir / "source.json", dev={"sel": synth_dir / "source.json"})
    d["encoder"]["vocab_size"] = 100
    cfg_path = tmp_path / "t.json"
    cfg_path.write_text(json.dumps(d))
    capsys.readouterr()
    argv = {"train": [], "grid": ["--beta", "0.01,0.001", "--sigma", "0"]}[command]
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
                + argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: token id outside the configured vocabulary")

class TestNegativeSeedExit1:
    """A negative seed is a usage error (exit 1): numpy takes only seeds >= 0."""

    @pytest.mark.parametrize("command", ["synth", "generate", "train", "grid"])
    def test_seed_flag_rejected_before_reading_inputs(self, tmp_path, capsys, command):
        # the inputs do not exist: reading one would be a runtime error, exit 2
        missing = str(tmp_path / "missing")
        inputs = {"synth": [], "generate": ["--contexts", missing],
                  "train": ["--config", missing], "grid": ["--config", missing]}[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, *inputs, "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "integer >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "grid"])
    def test_config_seed_rejected(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "t.json"
        cfg_path.write_text(json.dumps(train_config_dict(
            tmp_path / "missing.json", dev={"sel": tmp_path / "missing_dev.json"}, seed=-1)))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "seed: must be an integer >= 0" in err
        assert not out.exists()


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["synth"]) == 1

    @pytest.mark.parametrize("command, flag, value", [
        ("generate", "--k", "0"), ("generate", "--k", "-1"), ("generate", "--k", "two"),
        ("generate", "--max-answer-len", "0"), ("eval", "--max-answer-len", "0"),
        ("pca", "--max-samples", "0"),
    ])
    def test_bad_count_flag_rejected_before_reading_inputs(self, tmp_path, capsys, command,
                                                           flag, value):
        # the inputs do not exist: reading one would be a runtime error, exit 2
        missing = str(tmp_path / "missing")
        inputs = {"generate": ["--contexts", missing],
                  "eval": ["--checkpoint", missing, "--dataset", missing],
                  "pca": ["--checkpoint", missing, "--dataset", missing]}[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, *inputs, f"{flag}={value}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "integer >= 1" in err
        assert not out.exists()

    def test_env_run_root(self, synth_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("QADAPT_RUN_ROOT", str(tmp_path / "custom-root"))
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "t.json"
        cfg_path.write_text(json.dumps(train_config_dict(synth_dir / "source.json")))
        assert main(["train", "--config", str(cfg_path)]) == 0
        runs = list((tmp_path / "custom-root").glob("train-*"))
        assert len(runs) == 1
        assert runs[0].name.endswith("-seed1")  # the config's seed, with no --seed given
        assert (runs[0] / "checkpoint.bin").exists()
