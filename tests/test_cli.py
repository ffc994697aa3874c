import json
import hashlib
from pathlib import Path

import pytest

from qadapt.cli import main
from qadapt.datagen import load_squad_json
from qadapt.training import config_to_dict
from qadapt.losses import ContrastiveConfig, KernelConfig
from qadapt.model import EncoderConfig
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
    d = config_to_dict(cfg)
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


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["synth"]) == 1

    def test_env_run_root(self, synth_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("QADAPT_RUN_ROOT", str(tmp_path / "custom-root"))
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "t.json"
        cfg_path.write_text(json.dumps(train_config_dict(synth_dir / "source.json")))
        assert main(["train", "--config", str(cfg_path)]) == 0
        runs = list((tmp_path / "custom-root").glob("train-*"))
        assert len(runs) == 1
        assert (runs[0] / "checkpoint.bin").exists()
