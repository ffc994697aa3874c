"""One rule set for every config: an invalid value in any field of the train
config or of the ``synth --spec`` file, read through ``cli.main``, exits 1
with the field's dotted path at the head of a message line, before any
output is made. The invalid kinds are a wrong type, a bool, NaN or an
infinity, a value out of range, and an unknown key."""

import importlib.util
import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qadapt.cli import main
from qadapt.datagen import DomainShiftSpec
from qadapt.model import CHECKPOINT_MAGIC, config_to_json
from qadapt.training import TrainConfig

NOT_A_NUMBER = st.sampled_from(["1", [1], {"x": 1}, None])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = dict(allow_nan=False, allow_infinity=False)


def integer(low):
    return {"wrong type": st.one_of(NOT_A_NUMBER, st.floats(**FINITE)),
            "bool": st.booleans(),
            "non-finite": NON_FINITE,
            "out of range": st.integers(max_value=low - 1)}


def real(low, high=None, low_open=False, high_open=True):
    out = st.floats(max_value=low, exclude_max=not low_open, **FINITE)
    if high is not None:
        out = out | st.floats(min_value=high, exclude_min=not high_open, **FINITE)
    # an int too large for a float is not a finite number
    return {"wrong type": NOT_A_NUMBER, "bool": st.booleans(),
            "non-finite": NON_FINITE | st.just(10**400), "out of range": out}


def one_of(*values):
    return {"wrong type": st.sampled_from([1, 0.5, list(values), {"x": 1}, None]),
            "bool": st.booleans(),
            "non-finite": NON_FINITE,
            "out of range": st.text(max_size=20).filter(lambda text: text not in values)}


def with_item(valid, bad):
    """``valid`` with one item replaced by a value drawn from ``bad``."""
    return st.tuples(st.integers(0, len(valid) - 1), bad).map(
        lambda ib: valid[:ib[0]] + [ib[1]] + valid[ib[0] + 1:])


def items(item, valid, length=None, optional=False):
    """The invalid kinds of a list field whose items are checked by the
    strategies in ``item``; ``valid`` is a valid list."""
    lengths = [[], valid * 2] if length else [[]]
    return {"wrong type": st.sampled_from(["1", 1.0, {"x": 1}] + ([] if optional else [None])),
            "bool": st.booleans() | with_item(valid, st.booleans()),
            "non-finite": with_item(valid, item["non-finite"]),
            "out of range": st.sampled_from(lengths) | with_item(valid, item["out of range"])}


SECTION = {"wrong type": st.sampled_from([5, [], "x", None]), "bool": st.booleans(),
           "non-finite": NON_FINITE}

TRAIN_FIELDS = {
    "learning_rate": real(0, low_open=True),
    "epochs": integer(1),
    "batch_size": integer(1),
    "mixing_policy": one_of("mixed", "source-only"),
    "optimizer": SECTION,
    "optimizer.betas": items(real(0, 1), [0.9, 0.999], length=2),
    "optimizer.eps": real(0, low_open=True),
    "optimizer.weight_decay": real(0),
    "optimizer.warmup_steps": integer(0),
    "seed": integer(0),
    "contrastive": SECTION,
    "contrastive.beta": real(0),
    "contrastive.noise_sigma": real(0),
    "contrastive.kernel": SECTION,
    "contrastive.kernel.bandwidths": items(real(0, low_open=True), [1.0, 4.0], optional=True),
    "contrastive.kernel.median_multipliers": items(real(0, low_open=True), [0.5, 2.0]),
    "contrastive.sign_variant": one_of("similarity-flipped"),
    "max_answer_len": integer(1),
    "eval_cadence": integer(0),
    "grad_clip": real(0, low_open=True),
    "encoder": SECTION,
    **{f"encoder.{name}": integer(1)
       for name in ("vocab_size", "hidden_dim", "num_layers", "num_heads", "ff_dim", "max_len")},
    "encoder.seed": integer(0),
}

SPEC_FIELDS = {
    "vocab_words": integer(2),
    "n_source": integer(1),
    "n_target_contexts": integer(1),
    "qa_per_target_context": integer(1),
    "context_words": items(integer(1), [6, 9], length=2),
    "source_answer_mean": real(1),
    "target_answer_mean": real(1),
    "vocab_shift": real(0, 1, high_open=False),
    "question_window": integer(0),
}


def field_paths(config: dict, prefix: str = ""):
    for key, value in config.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from field_paths(value, f"{prefix}{key}.")


def test_the_tables_name_every_field():
    assert set(TRAIN_FIELDS) == set(field_paths(config_to_json(TrainConfig())))
    assert set(SPEC_FIELDS) == set(field_paths(config_to_json(DomainShiftSpec())))


def test_the_demo_train_config_names_every_key():
    """CI's demo step promises that its train config writes out every config
    key; ``run`` adds only the ``data`` section."""
    path = Path(__file__).parent.parent / "scripts" / "run_demo.py"
    spec = importlib.util.spec_from_file_location("run_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert set(field_paths(demo.TRAIN_CONFIG)) == set(field_paths(config_to_json(TrainConfig())))


def put(config: dict, path: str, value) -> dict:
    """A copy of ``config`` with the field at the dotted ``path`` set."""
    config = json.loads(json.dumps(config))
    *sections, name = path.split(".")
    section = config
    for key in sections:
        section = section[key]
    section[name] = value
    return config


def exits_1_naming(capsys, tmp_path, command, config, path) -> list[str]:
    """Run ``command`` on ``config`` and check that it exits 1 with a
    message line that starts with ``path``, and made no output. Returns the
    problem lines, below the message's header."""
    flag = {"train": "--config", "synth": "--spec"}[command]
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, flag, str(tmp_path / "config.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any(line.startswith(f"{path}: ") for line in err.splitlines()), err
    assert not out.exists()
    return err.splitlines()[1:]


TRAIN_BASE = dict(config_to_json(TrainConfig()), data={"source": "missing.json"})
SLOW_FIXTURES = settings(max_examples=8, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("path, kind", [(path, kind) for path, kinds in TRAIN_FIELDS.items()
                                        for kind in kinds])
@SLOW_FIXTURES
@given(data=st.data())
def test_invalid_train_config_field_exits_1(capsys, tmp_path, path, kind, data):
    # the config names a source dataset that does not exist: reading it would exit 2
    value = data.draw(TRAIN_FIELDS[path][kind])
    exits_1_naming(capsys, tmp_path, "train", put(TRAIN_BASE, path, value), path)


@pytest.mark.parametrize("path, kind", [(path, kind) for path, kinds in SPEC_FIELDS.items()
                                        for kind in kinds])
@SLOW_FIXTURES
@given(data=st.data())
def test_invalid_domain_spec_field_exits_1(capsys, tmp_path, path, kind, data):
    value = data.draw(SPEC_FIELDS[path][kind])
    exits_1_naming(capsys, tmp_path, "synth", put({}, path, value), path)


@pytest.mark.parametrize("section", ["", "optimizer", "contrastive", "contrastive.kernel",
                                     "encoder", "data"])
def test_unknown_train_config_key_exits_1(capsys, tmp_path, section):
    path = f"{section}.foo" if section else "foo"
    exits_1_naming(capsys, tmp_path, "train", put(TRAIN_BASE, path, 1), path)


def test_unknown_domain_spec_key_exits_1(capsys, tmp_path):
    exits_1_naming(capsys, tmp_path, "synth", {"foo": 1}, "foo")


@pytest.mark.parametrize("path, value", [
    ("encoder.seed", -1),
    ("encoder.hidden_dim", 30),  # 30 hidden units do not split into 4 heads
    ("batch_size", 1),  # the mixed policy needs both domains in a batch
])
def test_train_config_cases_exit_1(capsys, tmp_path, path, value):
    exits_1_naming(capsys, tmp_path, "train", put(TRAIN_BASE, path, value), path)


PROBLEM_LINES = [
    ("epochs", 1.5, "an integer >= 1, got 1.5"),
    ("epochs", True, "an integer >= 1, got True"),
    ("batch_size", 8.5, "an integer >= 1, got 8.5"),
    ("seed", 1.5, "an integer >= 0, got 1.5"),
    ("max_answer_len", 2.5, "an integer >= 1, got 2.5"),
    ("eval_cadence", 0.5, "an integer >= 0, got 0.5"),
    ("contrastive.beta", -1.0, "a finite number >= 0, got -1.0"),
    ("grad_clip", math.inf, "a finite number > 0, got inf"),
    ("contrastive.kernel.bandwidths", [1.0, math.nan], "null or a list of one or more items, "
     "each a finite number > 0 whose reciprocal is finite, got [1.0, nan]"),
    # positive, but the kernel's -1 / gamma overflows
    ("contrastive.kernel.bandwidths", [1e-320], "null or a list of one or more items, "
     "each a finite number > 0 whose reciprocal is finite, got [1e-320]"),
    ("contrastive.kernel.median_multipliers", [1e-320, 1.0], "a list of one or more items, "
     "each a finite number > 0 whose reciprocal is finite, got [1e-320, 1.0]"),
    # the sign the paper prints, which the one contrastive objective flips
    ("contrastive.sign_variant", "as-printed", "one of 'similarity-flipped', got 'as-printed'"),
]


@pytest.mark.parametrize("path, value, problem", PROBLEM_LINES,
                         ids=[f"{path}={value!r}" for path, value, _ in PROBLEM_LINES])
def test_train_config_problem_line(capsys, tmp_path, path, value, problem):
    """The whole message below the header is one line: the field's path,
    what it must be (a real number must be finite) and the value given."""
    lines = exits_1_naming(capsys, tmp_path, "train", put(TRAIN_BASE, path, value), path)
    assert lines == [f"{path}: must be {problem}"]


@pytest.mark.parametrize("value", ["mixed-batch", "domain-separated"])
def test_removed_pairing_variant_is_an_unknown_field(capsys, tmp_path, value):
    """The contrastive loss pools the whole batch; the key that chose
    between that and domain-separated pairs is gone."""
    path = "contrastive.pairing_variant"
    lines = exits_1_naming(capsys, tmp_path, "train", put(TRAIN_BASE, path, value), path)
    assert lines == [f"{path}: unknown field"]


# wrong-typed paths in ``data`` are cases of
# tests/test_cli.py::TestMalformedInputsExitWithoutTraceback
@pytest.mark.parametrize("data, path", [
    (5, "data"),
    ({}, "data.source"),  # the one required field
    ({"source": "s.json", "dev": "d.json"}, "data.dev"),
])
def test_invalid_data_section_exits_1(capsys, tmp_path, data, path):
    exits_1_naming(capsys, tmp_path, "train", dict(TRAIN_BASE, data=data), path)


def test_reversed_context_word_range_exits_1(capsys, tmp_path):
    exits_1_naming(capsys, tmp_path, "synth", {"context_words": [9, 6]}, "context_words")


def test_every_problem_is_named_on_its_own_line(capsys, tmp_path):
    config = put(put(put(TRAIN_BASE, "optimizer.eps", 0), "encoder.foo", 1), "learning_rate", -1)
    (tmp_path / "config.json").write_text(json.dumps(put(config, "data.dve", "d.json")))
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "config.json")]) == 1
    problems = capsys.readouterr().err.splitlines()[1:]  # below the "config error:" header
    assert [line.split(":")[0] for line in problems] == [
        "optimizer.eps", "encoder.foo", "learning_rate", "data.dve"]


@pytest.mark.parametrize("header", [b'{"seed": -1}', b'{"foo": 1}', b'{"hidden_dim": 2.5}',
                                    b'[1]', b'{"seed": tru'])
def test_malformed_checkpoint_header_exits_2(capsys, tmp_path, header):
    ckpt = tmp_path / "model.bin"
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(tmp_path / "missing")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad config header" in err
    assert len(err.strip().splitlines()) == 1
