"""Guard: an error message does not grow with the input it echoes.

Every input path is fed a 3,000-character value: each session-config field
(as a string, and integer and real fields also as a negative 3,000-digit
number), an unknown or repeated config key at the top level and inside
``detector``, the sweep and session flags, an unrecognized command-line
argument, and each counts-file header value and row token.  Each must fail
with its documented exit code and a message under 200 characters: echoed
input is cut to 40 characters and ``...``.  A flag value or argument that
argparse itself rejects keeps argparse's usage text, and its error line is
bounded the same way.
"""

import dataclasses
import json

import pytest

from ebqkd import cli, measurement, optics, protocol
from ebqkd.cli import EXIT_USAGE, EXIT_VALIDATION
from ebqkd.qstate import echo

LONG = "x" * 3000
BIG = 10**2999  # 3,000 digits
BASE = {"protocol": "bbm92", "source": {"label": "phi_plus"}}
SECTIONS = {"source": optics.SourceModel, "channel": optics.ChannelModel,
            "detector": measurement.DetectorModel}


def _key(cls, field):
    return cli._JSON_KEYS.get((cls, field.name), field.name)


def _field_cases():
    """``(dotted field, config document)`` for each value fed to each field."""
    for f in dataclasses.fields(protocol.SessionConfig):
        key = _key(protocol.SessionConfig, f)
        model = SECTIONS.get(key)
        fields = dataclasses.fields(model) if model else [f]
        for g in fields:
            field = f"{key}.{_key(model, g)}" if model else key
            for value in (LONG, -BIG) if g.type in ("int", "float", "float | None") else (LONG,):
                doc = {**BASE, key: {**BASE.get(key, {}), _key(model, g): value} if model else value}
                yield pytest.param(field, doc, id=f"{field}-{type(value).__name__}")
        if model:
            yield pytest.param(key, {**BASE, key: LONG}, id=f"{key}-section")


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().err


def _assert_bounded(code, err, exit_code):
    assert code == exit_code, err[:300]
    assert err.startswith("error: ") and len(err) < 200, (len(err), err[:300])


@pytest.mark.parametrize("field,doc", list(_field_cases()))
def test_session_field_errors_are_bounded(tmp_path, capsys, field, doc):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc))
    code, err = _run(capsys, ["session", str(path)])
    _assert_bounded(code, err, EXIT_USAGE)
    assert field in err


@pytest.mark.parametrize("text", [
    json.dumps({**BASE, LONG: 1}),
    json.dumps({**BASE, "detector": {LONG: 1}}),
    json.dumps(BASE)[:-1] + f', "{LONG}": 1, "{LONG}": 2}}',
    json.dumps(BASE)[:-1] + f', "detector": {{"{LONG}": 1, "{LONG}": 2}}}}',
], ids=["unknown", "unknown-in-detector", "repeated", "repeated-in-detector"])
def test_config_key_errors_are_bounded(tmp_path, capsys, text):
    path = tmp_path / "session.json"
    path.write_text(text)
    _assert_bounded(*_run(capsys, ["session", str(path)]), EXIT_USAGE)


@pytest.mark.parametrize("flags", [["--n-pairs", str(BIG)], ["--seed", str(-BIG)]], ids=["n-pairs", "seed"])
def test_session_flag_errors_are_bounded(tmp_path, capsys, flags):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(BASE))
    _assert_bounded(*_run(capsys, ["session", str(path), *flags]), EXIT_USAGE)


@pytest.mark.parametrize("flags", [
    ["--grid", LONG],
    ["--grid", "0.5", "--n-pairs", str(BIG)],
    ["--grid", "0.5", "--seed", str(-BIG)],
    ["--grid", "0.5", "--workers", str(-BIG)],
], ids=["grid", "n-pairs", "seed", "workers"])
def test_sweep_flag_errors_are_bounded(capsys, flags):
    _assert_bounded(*_run(capsys, ["sweep", "--mechanism", "werner", *flags]), EXIT_USAGE)


@pytest.mark.parametrize("argv,value", [
    (["sweep", "--mechanism", LONG, "--grid", "0.5"], LONG),
    (["sweep", "--mechanism", "x'" + LONG, "--grid", "0.5"], "x'" + LONG),
    (["sweep", "--mechanism", "werner", "--grid", "0.5", "--n-pairs", LONG], LONG),
    (["sweep", "--mechanism", "werner", "--grid", "0.5", "--efficiency", LONG], LONG),
    (["sweep", "--mechanism", "werner", "--grid", "0.5", "--label", LONG], LONG),
    (["analyze", "counts.txt", "--protocol", LONG], LONG),
    (["analyze", "counts.txt", "--accidental-window", LONG], LONG),
    ([LONG], LONG),
], ids=["mechanism", "mechanism-quote", "n-pairs", "efficiency", "label", "protocol", "accidental-window", "command"])
def test_argparse_errors_are_bounded(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    line = err.splitlines()[-1]
    assert exc.value.code == EXIT_USAGE
    assert err.startswith("usage: ebqkd") and len(err) < 700, (len(err), err[:300])
    assert "error: argument" in line and echo(value) in line and len(line) < 200, line[:300]


@pytest.mark.parametrize("argv", [
    ["sweep", "--mechanism", "werner", "--grid", "0.5", LONG],
    ["session", "session.json", LONG, "-" + LONG],
], ids=["sweep", "session"])
def test_unrecognized_arguments_are_bounded(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    line = err.splitlines()[-1]
    extra = argv[argv.index(LONG):]
    assert exc.value.code == EXIT_USAGE
    assert err.startswith("usage: ebqkd") and len(err) < 700, (len(err), err[:300])
    assert line.endswith("error: unrecognized arguments: " + " ".join(map(echo, extra))), line[:300]
    assert len(line) < 200, line[:300]


HEADER = ["format: qkd-counts/1", "state: phi_plus", "seconds-per-row: 1"]
ROW = ["0", "11.25", "1000", "1000", "500"]


def _counts_cases():
    for i, line in enumerate(HEADER):
        key = line.partition(":")[0]
        yield [*HEADER[:i], f"{key}: {LONG}", *HEADER[i + 1:], " ".join(ROW)]
    yield [*HEADER[:1], f"{LONG}: 1", *HEADER[1:], " ".join(ROW)]
    for col in range(5):
        for token in (LONG, "9" * 3000, "-" + "9" * 2999):
            row = list(ROW)
            row[col] = token
            yield [*HEADER, " ".join(row)]


@pytest.mark.parametrize("lines", list(_counts_cases()))
def test_counts_file_errors_are_bounded(tmp_path, capsys, lines):
    path = tmp_path / "counts.txt"
    path.write_text("\n".join(lines) + "\n")
    _assert_bounded(*_run(capsys, ["analyze", str(path)]), EXIT_VALIDATION)
