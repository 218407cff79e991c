import concurrent.futures
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ebqkd
from ebqkd import chsh, cli, ingest, measurement, optics, protocol, qstate
from ebqkd.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, SWEEP_COLUMNS

SQ2 = math.sqrt(2.0)
LONG = "x" * 3000


def session_config(tmp_path, **overrides):
    doc = {
        "protocol": "bbm92",
        "source": {"label": "phi_plus"},
        "channel": {"kind": "identity"},
        "detector": {"efficiency": 1.0},
        "n_pairs": 50_000,
        "qber_sample_fraction": 0.2,
        "seed": 5,
    }
    doc.update(overrides)
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc))
    return path


class TestSweep:
    def test_werner_three_points(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        rc = cli.main([
            "sweep", "--mechanism", "werner", "--grid", "1.0,0.9,0.8",
            "--n-pairs", "100000", "--seed", "3", "--out", str(out),
        ])
        assert rc == EXIT_OK
        data = cli.read_sweep_table(out)
        assert len(data["mechanism_param"]) == 3
        for w, s, q in zip(data["mechanism_param"], data["S_sampled"], data["qber"]):
            n_eff = 100_000 * 0.36  # default detector efficiency 0.6 squared
            assert abs(s - 2 * SQ2 * w) < 5 * math.sqrt(4 * 0.5 / n_eff)
            expect_q = (1 - w) / 2
            tol = 5 * math.sqrt(max(expect_q * (1 - expect_q), 2.5e-6) / n_eff)
            assert abs(q - expect_q) < tol

    def test_interleaved_sweeps_equal_each_run_alone(self):
        """Nothing a sweep memoizes carries over between calls: every spec
        gives, interleaved with the others in one process, the rows a fresh
        interpreter gives it alone."""
        specs = [
            (("werner", (1.0, 0.7)), "psi_minus", 3),
            (("imbalance", (0.3, 0.785)), "phi_minus", 4),
            (("hom_visibility", (0.9,)), "psi_plus", 5),
            (("intercept_fraction", (0.0, 0.4)), "phi_plus", 6),
        ]
        alone = []
        for (mechanism, grid), label, seed in specs:
            child = run_python("-c", (
                "import sys; from ebqkd import cli, qstate\n"
                f"spec = cli.SweepSpec({mechanism!r}, {grid!r}, n_pairs=20_000, label=qstate.BellLabel({label!r}))\n"
                f"print(repr(cli.run_sweep(spec, {seed})))"
            ))
            assert child.returncode == 0, child.stderr
            alone.append(child.stdout.strip())
        order = [0, 2, 1, 3, 3, 1, 0, 2]
        for k in order:
            (mechanism, grid), label, seed = specs[k]
            spec = cli.SweepSpec(mechanism, grid, n_pairs=20_000, label=qstate.BellLabel(label))
            assert repr(cli.run_sweep(spec, seed)) == alone[k]

    def test_empty_grid_usage_error(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--mechanism", "werner", "--grid", "", "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE
        assert "grid" in capsys.readouterr().err

    def test_out_of_domain_grid(self, tmp_path):
        rc = cli.main(["sweep", "--mechanism", "werner", "--grid", "1.5", "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE

    def test_imbalance_sweep_linear_law(self, tmp_path):
        eps = [0.35, 0.5, 0.65, math.pi / 4]
        out = tmp_path / "imb.tsv"
        rc = cli.main([
            "sweep", "--mechanism", "imbalance",
            "--grid", ",".join(f"{e}" for e in eps),
            "--n-pairs", "100000", "--seed", "9", "--out", str(out),
        ])
        assert rc == EXIT_OK
        data = cli.read_sweep_table(out)
        n_eff = 100_000 * 0.36
        for s, q in zip(data["S_sampled"], data["qber"]):
            tol = 5 * (math.sqrt(4 * 0.5 / n_eff) + 2 * SQ2 * 2 * math.sqrt(0.25 / (2 * n_eff)))
            assert abs(s - 2 * SQ2 * (1 - 2 * q)) < tol

    def test_column_schema_stable(self, tmp_path):
        out = tmp_path / "s.tsv"
        cli.main(["sweep", "--mechanism", "hom_visibility", "--grid", "0.9",
                  "--n-pairs", "1000", "--seed", "1", "--out", str(out)])
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert tuple(header.split("\t")) == SWEEP_COLUMNS

    def test_table_round_trips_through_schema(self, tmp_path):
        spec = cli.SweepSpec(mechanism="werner", grid=(0.95, 0.8), n_pairs=5000)
        rows = cli.run_sweep(spec, seed=4)
        out = tmp_path / "rt.tsv"
        with open(out, "w", encoding="utf-8") as fh:
            cli.write_sweep_table(rows, spec, 4, fh)
        data = cli.read_sweep_table(out)
        for column in SWEEP_COLUMNS:
            written = [row[column] for row in rows]
            assert data[column] == pytest.approx(written, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("cut", ["short", "long"])
    def test_ragged_row_names_its_line(self, tmp_path, cut):
        spec = cli.SweepSpec(mechanism="werner", grid=(0.95, 0.8, 0.7), n_pairs=5000)
        table = io.StringIO()
        cli.write_sweep_table(cli.run_sweep(spec, seed=4), spec, 4, table)
        lines = table.getvalue().splitlines()
        values = lines[4].split("\t")
        lines[4] = "\t".join(values[:2] if cut == "short" else values + values[:2])
        out = tmp_path / "ragged.tsv"
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        n_values = 2 if cut == "short" else len(SWEEP_COLUMNS) + 2
        with pytest.raises(ValueError, match=rf"^line 5: {n_values} values for {len(SWEEP_COLUMNS)} sweep columns"):
            cli.read_sweep_table(out)

    @staticmethod
    def _table_lines() -> list[str]:
        spec = cli.SweepSpec(mechanism="werner", grid=(0.95, 0.8, 0.7), n_pairs=5000)
        table = io.StringIO()
        cli.write_sweep_table(cli.run_sweep(spec, seed=4), spec, 4, table)
        return table.getvalue().split("\n")

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_a_comment_runs_to_the_end_of_the_line(self, tmp_path, sep, newline):
        # str.splitlines ends a line at these too; the tail of a comment
        # holding one used to be read as the header row.
        lines = self._table_lines()
        plain, commented = tmp_path / "plain.tsv", tmp_path / "commented.tsv"
        plain.write_text("\n".join(lines), encoding="utf-8")
        assert lines[1].startswith("# mechanism:")
        lines[1] += f"  acquired by lab A{sep} x"
        commented.write_bytes(newline.join(lines).encode())
        assert cli.read_sweep_table(commented) == cli.read_sweep_table(plain)

    @pytest.mark.parametrize("at", ["header", "row"])
    def test_a_3000_column_line_is_echoed_bounded(self, tmp_path, at):
        lines = self._table_lines()
        assert lines[2].startswith("mechanism_param")  # the header row; data rows follow
        lines[2 if at == "header" else 3] = "\t".join(["1"] * 3000)
        out = tmp_path / "wide.tsv"
        out.write_text("\n".join(lines), encoding="utf-8")
        expected = "^unexpected sweep columns" if at == "header" else rf"^line 4: 3000 values for {len(SWEEP_COLUMNS)} sweep columns"
        with pytest.raises(ValueError, match=expected) as info:
            cli.read_sweep_table(out)
        assert len(str(info.value)) < 200 and str(info.value).endswith("...'")

    @pytest.mark.parametrize("token,shown", [("0.9x", "'0.9x'"), (LONG, repr(qstate.echo(LONG)))], ids=["short", "long"])
    def test_a_value_that_is_not_a_number_names_its_line_and_column(self, tmp_path, token, shown):
        lines = self._table_lines()
        values = lines[4].split("\t")
        values[2] = token
        lines[4] = "\t".join(values)
        out = tmp_path / "bad.tsv"
        out.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            cli.read_sweep_table(out)
        assert str(info.value) == f"line 5: column 3: not a number: {shown}"
        assert len(str(info.value)) < 200

    def test_a_table_without_a_header_row_is_refused(self, tmp_path):
        out = tmp_path / "comments.tsv"
        out.write_text("\n".join(self._table_lines()[:2]) + "\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^no header row found$"):
            cli.read_sweep_table(out)

    @pytest.mark.parametrize("field,value,message", [
        ("mechanism", "bogus", f"unknown mechanism 'bogus'; expected one of {cli.MECHANISMS}"),
        ("mechanism", LONG, f"unknown mechanism {qstate.echo(LONG)!r}; expected one of {cli.MECHANISMS}"),
        ("qber_mode", "median", "qber mode must be 'mean' or 'worst', got 'median'"),
        ("qber_mode", LONG, f"qber mode must be 'mean' or 'worst', got {qstate.echo(LONG)!r}"),
        ("n_pairs", 0, "n_pairs must be in [1, 2**63), got 0"),
        ("n_pairs", 2**63, "n_pairs must be in [1, 2**63), got 9223372036854775808"),
        ("n_pairs", 1e6, "n_pairs must be an integer, got 1000000.0"),
        ("n_pairs", True, "n_pairs must be an integer, got True"),
        ("detector", measurement.DetectorModel(dark_rate=1e17),
         "detector.dark_rate gives 1e+20 expected accidental coincidences over 1000 pairs,"
         " above the Poisson sampler's limit 9.22337e+18"),
    ], ids=["mechanism", "mechanism-long", "qber", "qber-long", "n_pairs-0", "n_pairs-2**63", "n_pairs-float",
            "n_pairs-bool", "dark-rate"])
    def test_a_bad_spec_is_a_usage_error(self, monkeypatch, capsys, field, value, message):
        spec = {"mechanism": "werner", "grid": (0.5,), "n_pairs": 1000, field: value}
        with pytest.raises(cli.ConfigError) as info:
            cli.SweepSpec(**spec)
        assert str(info.value) == message and len(message) < 200
        # argparse's choices refuse these values before a spec is built, so
        # the front end is reached through its sweep command.
        monkeypatch.setattr(cli, "cmd_sweep", lambda args: cli.SweepSpec(**spec))
        assert cli.main(["sweep", "--mechanism", "werner", "--grid", "0.5"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_csv_format(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = cli.main(["sweep", "--mechanism", "werner", "--grid", "1.0,0.9",
                       "--n-pairs", "2000", "--seed", "2", "--format", "csv",
                       "--out", str(out)])
        assert rc == EXIT_OK
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert tuple(header.split(",")) == SWEEP_COLUMNS
        data = cli.read_sweep_table(out)
        assert len(data["S_sampled"]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--mechanism", "werner", "--grid", "0.95,0.85",
                "--n-pairs", "20000", "--seed", "11"]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert cli.main(args + ["--out", str(a)]) == EXIT_OK
        assert cli.main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path):
        args = ["sweep", "--mechanism", "werner", "--grid", "1.0,0.9,0.8,0.7",
                "--n-pairs", "5000", "--seed", "13"]
        serial, parallel = tmp_path / "serial.tsv", tmp_path / "par.tsv"
        assert cli.main(args + ["--out", str(serial)]) == EXIT_OK
        assert cli.main(args + ["--workers", "3", "--out", str(parallel)]) == EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()

    def test_empty_key_basis_is_an_error(self, tmp_path, capsys):
        # Two pairs per setting at efficiency 1e-6 leave the H/V basis empty
        # at every seed (a coincidence has probability <= 2e-12); the sweep
        # used to report qber=0.0 and I_AB=1.0 for it.
        spec = cli.SweepSpec("werner", (0.9,), n_pairs=2, detector=cli.DetectorModel(1e-6))
        for seed in range(4):
            with pytest.raises(protocol.EmptyBasisError, match="compatible basis at 0 deg"):
                cli.run_sweep(spec, seed=seed)
            rc = cli.main(["sweep", "--mechanism", "werner", "--grid", "0.9", "--n-pairs", "2",
                           "--efficiency", "1e-6", "--seed", str(seed), "--out", str(tmp_path / "x.tsv")])
            assert rc == EXIT_VALIDATION
            assert "zero coincidences in the compatible basis" in capsys.readouterr().err

    def test_empty_chsh_row_is_an_error(self, monkeypatch):
        # A CHSH setting pair that drew no coincidence has no correlator,
        # whichever seed left it empty: the (0, 67.5) deg pair's draw is emptied.
        empty = chsh.canonical_settings(qstate.BellLabel.PHI_PLUS).pairs()[1]

        def one_chsh_pair_empty(*args):
            rows = measurement.sample_outcomes(*args)
            return [dataclasses.replace(r, n_pp=0, n_pm=0, n_mp=0, n_mm=0) if (r.a, r.b) == empty else r for r in rows]

        monkeypatch.setattr(cli, "sample_outcomes", one_chsh_pair_empty)
        spec = cli.SweepSpec("werner", (0.9,), n_pairs=1000, detector=cli.DetectorModel(0.8))
        with pytest.raises(chsh.IncompleteTableError, match=r"^zero total coincidences for setting pair \(0, 67\.5\) deg$"):
            cli.run_sweep(spec, seed=1)

    @pytest.mark.parametrize("workers,grid,cpus,expected", [
        (64, 5, 3, 3), (64, 5, 8, 5), (2, 5, 8, 2), (4, 1, 8, None), (4, 5, None, None),
    ])
    def test_workers_clamped(self, monkeypatch, workers, grid, cpus, expected):
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        spec = cli.SweepSpec("werner", tuple(0.5 + 0.1 * i for i in range(grid)), n_pairs=100)
        rows = cli.run_sweep(spec, seed=1, workers=workers)
        assert pools == ([] if expected is None else [expected])
        assert rows == cli.run_sweep(spec, seed=1)

    @pytest.mark.parametrize("flags", [
        ["--efficiency", "1.5"],
        ["--efficiency", "nan"],
        ["--efficiency", "inf"],
        ["--efficiency", "0"],
        ["--seed", "-1"],
        ["--n-pairs", str(2**63)],
        ["--workers", "0"],
        ["--workers", "-3"],
    ])
    def test_out_of_range_flag_is_a_config_error(self, capsys, flags):
        argv = ["sweep", "--mechanism", "werner", "--grid", "0.9", "--n-pairs", "100", *flags]
        assert cli.main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_names_the_flag(self, capsys, workers):
        argv = ["sweep", "--mechanism", "werner", "--grid", "0.9", "--n-pairs", "100", "--workers", workers]
        assert cli.main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"

    def test_header_names_the_measured_bases(self, tmp_path):
        # QBER columns are always measured in BBM92's H/V and D/A bases, so
        # the header says so and no flag relabels it.
        out = tmp_path / "sweep.tsv"
        argv = ["sweep", "--mechanism", "werner", "--grid", "0.9", "--n-pairs", "1000", "--out", str(out)]
        assert cli.main(argv) == EXIT_OK
        assert "  protocol: bbm92  " in out.read_text().splitlines()[1]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--protocol", "e91"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("mechanism,grid,n_checked", [
        ("werner", (0.9, 0.5, 1.0, 0.0), 1 + 4),
        ("imbalance", (0.6, 0.0, math.pi / 4, math.pi / 2), 4),
        ("hom_visibility", (0.8, 0.0, 1.0, 0.5), 4),
        ("intercept_fraction", (0.5, 0.0, 1.0, 0.0), 1 + 2),
    ])
    def test_block_builds_one_stack_and_one_table(self, monkeypatch, mechanism, grid, n_checked):
        # A block checks each distinct state once, as stacks (a source all
        # points share once, then one stack of channel outputs or Eve's
        # averages; at Eve fraction 0 a point reads the source), builds no
        # TwoQubitState, and makes one Born table of the six setting pairs
        # for every point's analytic S and draws.
        states, checked, tables = [], [], []
        post_init = qstate.TwoQubitState.__post_init__
        monkeypatch.setattr(
            qstate.TwoQubitState, "__post_init__", lambda self: states.append(self) or post_init(self)
        )
        check = cli.checked_bloch
        monkeypatch.setattr(cli, "checked_bloch", lambda rho: checked.append(rho.shape[:-2]) or check(rho))
        born_table = qstate.born_table
        counted = lambda *args: tables.append(args) or born_table(*args)  # noqa: E731
        for module in (qstate, measurement, chsh, cli):
            monkeypatch.setattr(module, "born_table", counted)
        rows = cli.run_sweep(cli.SweepSpec(mechanism, grid, n_pairs=10_000), seed=3)
        assert [row["mechanism_param"] for row in rows] == list(grid)
        assert states == []
        assert len(checked) <= 2 and sum(math.prod(shape) for shape in checked) == n_checked
        assert len(tables) == 1
        assert tables[0][0].shape == (len(grid), 4, 4) and len(tables[0][1]) == 6

    @pytest.mark.parametrize("mechanism,grid", [
        ("werner", (0.9, 0.5, 1.0, 0.0, 1 / 3, 1 - 1e-12)),
        ("imbalance", (0.6, 0.0, math.pi / 4, math.pi / 2, 1e-9, 1.3)),
        ("hom_visibility", (0.8, 0.0, 1.0, 0.5, 1e-12, 0.999)),
        ("intercept_fraction", (0.5, 0.0, 1.0, 0.0, 1e-12, 0.3)),
    ])
    @pytest.mark.parametrize("label", list(qstate.BellLabel))
    def test_block_rows_equal_rows_of_states_built_one_at_a_time(self, mechanism, grid, label):
        # The stacked chain takes the products a single state takes, so
        # every row, S_analytic included, is that of the point's state
        # built alone through optics and Eve's average, bit for bit.
        def alone(value):
            if mechanism == "werner":
                return optics.werner_state(label, value)
            if mechanism == "imbalance":
                return optics.bell_state(label, value)
            if mechanism == "hom_visibility":
                return optics.generate(optics.SourceModel(label, hom_visibility=value))
            return measurement.intercept_average_state(optics.generate(optics.SourceModel(label)), value)

        spec = cli.SweepSpec(mechanism, grid, n_pairs=10**6, label=label)
        pairs = chsh.canonical_settings(label).pairs() + protocol.BBM92.key_pairs()
        expected = [
            cli.sweep_point(spec, i, value, 7, qstate.born_table(alone(value).bloch, pairs))
            for i, value in enumerate(grid)
        ]
        assert repr(cli.run_sweep(spec, seed=7)) == repr(expected)

    @pytest.mark.parametrize("n,workers,block,sizes", [
        (10, 1, 4, [3, 3, 4]),
        (10, 2, 4, [3, 3, 4]),
        (9, 2, 1024, [4, 5]),
        (5, 4, 1024, [1, 1, 1, 2]),
        (5, 1, 1024, [5]),
    ])
    def test_grid_is_cut_into_blocks(self, monkeypatch, n, workers, block, sizes):
        # Near-equal blocks of at most SWEEP_BLOCK points, at least one per
        # worker; the serial path and the pool run the same blocks.
        blocks = []
        run_block = cli._sweep_block

        def recorded(spec, seed, start, values):
            blocks.append((start, len(values)))
            return run_block(spec, seed, start, values)

        class SerialPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
        monkeypatch.setattr(cli, "_sweep_block", recorded)
        spec = cli.SweepSpec("werner", tuple(1.0 - 0.05 * i for i in range(n)), n_pairs=100)
        rows = cli.run_sweep(spec, seed=1, workers=workers)
        assert [size for _, size in blocks] == sizes
        assert [start for start, _ in blocks] == [sum(sizes[:i]) for i in range(len(sizes))]
        assert [row["mechanism_param"] for row in rows] == list(spec.grid)

    def test_two_workers_equal_one_on_a_grid_longer_than_a_block(self, tmp_path):
        grid = ",".join(f"{1.0 - i / (cli.SWEEP_BLOCK + 9):.12g}" for i in range(cli.SWEEP_BLOCK + 9))
        outs = []
        for workers in ("1", "2"):
            outs.append(tmp_path / f"w{workers}.tsv")
            argv = ["sweep", "--mechanism", "intercept_fraction", "--grid", grid, "--n-pairs", "1000",
                    "--seed", "4", "--workers", workers, "--out", str(outs[-1])]
            assert cli.main(argv) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(outs[0].read_text().splitlines()) == 3 + cli.SWEEP_BLOCK + 9

    def test_serial_sweep_does_not_ask_for_the_cpu_count(self, monkeypatch):
        def no_cpu_count():
            raise AssertionError("os.cpu_count() called")

        monkeypatch.setattr(cli.os, "cpu_count", no_cpu_count)
        spec = cli.SweepSpec("werner", (0.9, 0.8), n_pairs=100)
        assert len(cli.run_sweep(spec, seed=1)) == len(cli.run_sweep(spec, seed=1, workers=1)) == 2

    @pytest.mark.parametrize("label", ["PHI_PLUS", "Psi_Minus"])
    def test_label_flag_reads_in_any_case(self, tmp_path, label):
        argv = ["sweep", "--mechanism", "werner", "--grid", "0.9,0.8", "--n-pairs", "1000", "--seed", "2"]
        outs = []
        for value in (label, label.lower()):
            outs.append(tmp_path / f"{value}.tsv")
            assert cli.main([*argv, "--label", value, "--out", str(outs[-1])]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert f"label: {label.lower()}" in outs[0].read_text()

    def test_unknown_label_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--mechanism", "werner", "--grid", "0.9", "--label", "PHI_" + LONG.upper()])
        assert exc.value.code == EXIT_USAGE
        line = capsys.readouterr().err.splitlines()[-1]
        assert "invalid choice: " + repr(qstate.echo("phi_" + LONG)) in line and len(line) < 200

    def test_point_draws_once_per_setting_pair(self, monkeypatch):
        # Every sampled setting pair (four CHSH, two key bases) is one call
        # of the one count draw, over n_pairs pairs of its own generator.
        calls = []
        stream = measurement.sample_outcome_stream

        def traced(joint, stratum_idx, rng, det):
            calls.append((len(joint), len(stratum_idx), det))
            return stream(joint, stratum_idx, rng, det)

        monkeypatch.setattr(measurement, "sample_outcome_stream", traced)
        spec = cli.SweepSpec("werner", (0.9,), n_pairs=12_345, detector=measurement.DetectorModel(0.8))
        pairs = chsh.canonical_settings(spec.label).pairs() + protocol.BBM92.key_pairs()
        born = qstate.born_table(optics.werner_state(spec.label, 0.9).bloch, pairs)
        cli.sweep_point(spec, 0, 0.9, 3, born)
        assert calls == [(4, 12_345, spec.detector)] * 6

    def test_intercept_mechanism(self, tmp_path):
        out = tmp_path / "eve.tsv"
        rc = cli.main(["sweep", "--mechanism", "intercept_fraction", "--grid", "0.0,1.0",
                       "--n-pairs", "100000", "--seed", "17", "--out", str(out)])
        assert rc == EXIT_OK
        data = cli.read_sweep_table(out)
        assert data["S_analytic"][0] == pytest.approx(2 * SQ2, abs=1e-6)
        assert data["S_analytic"][1] == pytest.approx(SQ2, abs=1e-6)
        assert data["qber"][1] == pytest.approx(0.25, abs=0.02)
        assert data["r"][1] < 0


class TestSession:
    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "config root must be a JSON object"),
        (f'"{LONG}"', "config root must be a JSON object"),
        ("{", "config is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (f'{{"seed": {LONG}}}', "config is not valid JSON: Expecting value: line 1 column 10 (char 9)"),
    ], ids=["array", "string", "truncated", "bare-word"])
    def test_a_config_that_is_not_a_json_object_is_a_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "session.json"
        path.write_text(text)
        assert cli.main(["session", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_ideal_session_report(self, tmp_path):
        cfg = session_config(tmp_path)
        out = tmp_path / "report.json"
        assert cli.main(["session", str(cfg), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["format"] == cli.REPORT_FORMAT
        assert doc["security"]["r"] == pytest.approx(1.0, abs=0.02)
        for verdict in ("individual_bound_ok", "collective_bound_ok", "mi_positive"):
            assert doc["security"][verdict] is True
        assert "key_alice" not in doc["record"]

    @pytest.mark.parametrize("protocol_name", ["bbm92", "e91"])
    def test_report_with_accidentals_is_json(self, tmp_path, protocol_name):
        # Every count in the report must be a Python int: json.dumps cannot
        # write numpy integers.
        cfg = session_config(
            tmp_path, protocol=protocol_name, detector={"efficiency": 0.8, "dark_rate": 0.01}
        )
        out = tmp_path / "report.json"
        assert cli.main(["session", str(cfg), "--out", str(out)]) == EXIT_OK
        record = json.loads(out.read_text())["record"]
        assert record["disclosed_length"] + record["retained_length"] == record["sifted_length"]
        assert record["sifted_length"] < record["n_coincident"]

    def test_werner_086_verdicts(self, tmp_path):
        cfg = session_config(
            tmp_path,
            channel={"kind": "depolarizing", "parameter": 1 - 0.86, "arm": "both"},
            n_pairs=400_000,
        )
        out = tmp_path / "report.json"
        assert cli.main(["session", str(cfg), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["security"]["delta"] == pytest.approx(0.07, abs=0.01)
        assert doc["security"]["individual_bound_ok"] is True
        assert doc["security"]["collective_bound_ok"] is True
        assert doc["security"]["mi_positive"] is False

    def test_full_interception_all_verdicts_false(self, tmp_path):
        cfg = session_config(
            tmp_path,
            channel={"kind": "intercept_resend", "parameter": 1.0},
            n_pairs=400_000,
        )
        out = tmp_path / "report.json"
        assert cli.main(["session", str(cfg), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["security"]["delta"] == pytest.approx(0.25, abs=0.01)
        for verdict in ("individual_bound_ok", "collective_bound_ok", "mi_positive"):
            assert doc["security"][verdict] is False

    def test_emit_keys_flag(self, tmp_path):
        cfg = session_config(tmp_path, n_pairs=10_000)
        out = tmp_path / "report.json"
        assert cli.main(["session", str(cfg), "--emit-keys", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc["record"]["key_alice"]) <= {"0", "1"}
        assert doc["record"]["key_alice"] == doc["record"]["key_bob"]
        assert len(doc["record"]["key_alice"]) == doc["record"]["retained_length"]

    def test_emitted_keys_are_the_record_bits(self, tmp_path):
        # Noisy keys, so that Alice's and Bob's strings differ somewhere.
        cfg = session_config(tmp_path, source={"label": "psi_minus", "epsilon_rad": 0.7},
                             detector={"efficiency": 0.8, "dark_rate": 0.05}, n_pairs=20_000)
        out = tmp_path / "report.json"
        assert cli.main(["session", str(cfg), "--emit-keys", "--out", str(out)]) == EXIT_OK
        record = json.loads(out.read_text())["record"]
        rec = protocol.run_session(cli._session_config(json.loads(cfg.read_text()), SimpleNamespace(n_pairs=None, seed=None)))
        assert record["key_alice"] == "".join(str(b) for b in rec.key_bits_alice)
        assert record["key_bob"] == "".join(str(b) for b in rec.key_bits_bob)
        assert record["key_alice"] != record["key_bob"]

    def test_schema_violation_names_field(self, tmp_path, capsys):
        cfg = session_config(tmp_path, source={"label": "nope"})
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        assert "source.label" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("source", 5), ("channel", "werner"), ("detector", [1])])
    def test_non_object_section_is_a_config_error(self, tmp_path, capsys, field, value):
        cfg = session_config(tmp_path, **{field: value})
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        assert f"'{field}' must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("field,literal", [
        ("n_pairs", "Infinity"),
        ("n_pairs", "1e400"),
        ("n_pairs", "1" + "0" * 30),
        ("seed", "Infinity"),
        ("seed", "1e400"),
        ("seed", "-1"),
        ("detector", '{"window_pairs": Infinity}'),
        ("detector", '{"window_pairs": 1e400}'),
        ("detector", '{"dark_rate": NaN}'),
        ("detector", '{"dark_rate": Infinity}'),
        ("detector", '{"efficiency": 1.0, "efficiency_b": NaN}'),
    ])
    def test_out_of_range_number_is_a_config_error(self, tmp_path, capsys, field, literal):
        cfg = session_config(tmp_path, **{field: "@"})
        cfg.write_text(cfg.read_text().replace('"@"', literal))
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: invalid session config") and err.count("\n") == 1

    @pytest.mark.parametrize("text,reason", [
        ('{"n_pairs": 1' + "0" * 5000 + "}", "integer string conversion"),
        (b'{"n_pairs": "\xff"}', "can't decode byte 0xff"),
    ])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, text, reason):
        # Python's 4,300-digit limit on int() and UTF-8 decoding both raise
        # ValueError before any config field is read.
        cfg = tmp_path / "session.json"
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        else:
            cfg.write_text(text)
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg} cannot be read: ") and reason in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("overrides,field", [
        ({"n_pairs": 2000.7}, "n_pairs"),
        ({"n_pairs": True}, "n_pairs"),
        ({"n_pairs": "2000"}, "n_pairs"),
        ({"seed": 1.9}, "seed"),
        ({"seed": False}, "seed"),
        ({"detector": {"window_pairs": 2.5}}, "detector.window_pairs"),
        ({"detector": {"window_pairs": True}}, "detector.window_pairs"),
    ])
    def test_integer_field_is_not_truncated(self, tmp_path, capsys, overrides, field):
        cfg = session_config(tmp_path, **overrides)
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        value = next(iter(overrides.values()))
        value = value["window_pairs"] if isinstance(value, dict) else value
        err = capsys.readouterr().err
        expected = f"error: invalid session config: field '{field}' must be an integer, got {value!r}\n"
        assert err == expected

    @pytest.mark.parametrize("value", [True, "0.7"])
    @pytest.mark.parametrize("field", [
        "source.epsilon_rad",
        "source.hom_visibility",
        "channel.parameter",
        "detector.efficiency",
        "detector.efficiency_b",
        "detector.dark_rate",
        "qber_sample_fraction",
    ])
    def test_real_field_rejects_booleans_and_strings(self, tmp_path, capsys, field, value):
        sections = {
            "source": {"label": "phi_plus"},
            "channel": {"kind": "depolarizing"},
            "detector": {"efficiency": 1.0},
        }
        section, _, key = field.rpartition(".")
        if section:
            overrides = {section: {**sections[section], key: value}}
        else:
            overrides = {key: value}
        cfg = session_config(tmp_path, **overrides)
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: invalid session config: field '{field}' must be a number, got {value!r}\n"

    def test_integral_float_fields_are_integers(self, tmp_path):
        cfg = session_config(tmp_path, n_pairs=5e3, seed=2.0, detector={"efficiency": 1.0, "window_pairs": 4.0})
        out = tmp_path / "report.json"
        assert cli.main(["session", str(cfg), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["record"]["n_pairs"] == 5000 and doc["seed"] == 2

    @pytest.mark.parametrize("overrides,field", [
        ({"qber_fraction": 0.5}, "qber_fraction"),
        ({"source": {"label": "phi_plus", "epsilon": 0.5}}, "source.epsilon"),
        ({"channel": {"kind": "depolarizing", "param": 0.1}}, "channel.param"),
        ({"detector": {"efficency": 0.95}}, "detector.efficency"),
    ])
    def test_unknown_field_is_a_config_error(self, tmp_path, capsys, overrides, field):
        cfg = session_config(tmp_path, **overrides)
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: unknown config field '{field}'\n"

    @pytest.mark.parametrize("text,field", [
        ('{"protocol": "bbm92", "source": {"label": "phi_plus"}, "protocol": "e91"}', "protocol"),
        ('{"protocol": "bbm92", "source": {"label": "phi_plus"}, "seed": 1, "seed": 1}', "seed"),
        ('{"protocol": "bbm92", "source": {"label": "phi_plus"},'
         ' "detector": {"efficiency": 0.9, "efficiency": 0.5}}', "detector.efficiency"),
        ('{"protocol": "bbm92", "source": {"label": "phi_plus", "label": "psi_minus"}}', "source.label"),
    ])
    @pytest.mark.parametrize("flags", [[], ["--seed", "3", "--n-pairs", "1000"]])
    def test_duplicate_key_is_a_config_error(self, tmp_path, capsys, text, field, flags):
        # A JSON reader keeps the last of two equal keys; the config names it
        # instead, also where a flag overrides the field.
        cfg = tmp_path / "session.json"
        cfg.write_text(text)
        assert cli.main(["session", str(cfg), *flags]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: duplicate config field '{field}'\n"

    @pytest.mark.parametrize("overrides,message", [
        ({"channel": {"kind": "werner"}},
         "config field 'channel.kind' must be one of ['identity', 'depolarizing', 'intercept_resend']"),
        ({"protocol": "bb84"}, "config field 'protocol' must be one of ['bbm92', 'e91']"),
        ({"protocol": 92}, "config field 'protocol' must be one of ['bbm92', 'e91']"),
        ({"channel": {"kind": "depolarizing", "arm": 1}},
         "invalid session config: field 'channel.arm' must be a string, got 1"),
        ({"detector": {"efficiency": 1.0, "efficiency_b": 1.5}},
         "invalid session config: detector.efficiency_b must be in (0, 1], got 1.5"),
        ({"channel": {"kind": "depolarizing", "arm": "c"}},
         "invalid session config: channel.arm must be 'a', 'b' or 'both', got 'c'"),
        ({"channel": {"kind": "depolarizing", "parameter": 2}},
         "invalid session config: channel.parameter must be in [0, 1], got 2.0"),
        ({"source": {"label": "phi_plus", "epsilon_rad": 2}},
         "invalid session config: source.epsilon_rad must be in [0, pi/2], got 2.0"),
        ({"qber_sample_fraction": 1.5},
         "invalid session config: qber_sample_fraction must be in (0, 1), got 1.5"),
        ({"detector": {"dark_rate": 10**400}},
         "invalid session config: field 'detector.dark_rate' is too large for a float"),
        ({"detector": {"window_pairs": 2**63}},
         f"invalid session config: detector.window_pairs must be in [1, 2**63), got {2**63}"),
        ({"detector": {"window_pairs": 10**400}},
         f"invalid session config: detector.window_pairs must be in [1, 2**63), got 1{'0' * 39}..."),
    ])
    def test_field_error_names_the_field(self, tmp_path, capsys, overrides, message):
        cfg = session_config(tmp_path, **overrides)
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_every_model_field_has_a_reader(self):
        models = (protocol.SessionConfig, optics.SourceModel, optics.ChannelModel, measurement.DetectorModel)
        for model in models:
            for field in dataclasses.fields(model):
                assert field.type in cli._READERS, (model.__name__, field.name)

    def test_omitted_fields_take_model_defaults(self):
        doc = {"protocol": "E91", "source": {"label": "psi_minus"},
               "detector": {"efficiency": 0.9, "efficiency_b": 0.5}}
        cfg = cli._session_config(doc, SimpleNamespace(n_pairs=None, seed=3))
        assert cfg == protocol.SessionConfig(
            kind=protocol.E91,
            source=optics.SourceModel(qstate.BellLabel.PSI_MINUS),
            detector=measurement.DetectorModel(efficiency=0.9, efficiency_b=0.5),
            seed=3,
        )

    @pytest.mark.parametrize("overrides,field,value", [
        ({"source": {"label": "PHI_MINUS"}}, "source", optics.SourceModel(qstate.BellLabel.PHI_MINUS)),
        ({"channel": {"kind": "Intercept_Resend"}}, "channel", optics.ChannelModel.intercept_resend(0.0)),
    ])
    def test_names_match_in_any_case(self, overrides, field, value):
        doc = {"protocol": "bbm92", "source": {"label": "phi_plus"}, **overrides}
        cfg = cli._session_config(doc, SimpleNamespace(n_pairs=None, seed=None))
        assert getattr(cfg, field) == value

    def test_readme_config_uses_model_fields(self):
        """The README's example config reads, and its sections hold only model fields."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        doc = next(json.loads(b) for b in blocks if '"protocol"' in b)
        cfg = cli._session_config(doc, SimpleNamespace(n_pairs=None, seed=None))
        for section in ("source", "channel", "detector"):
            fields = {f.name for f in dataclasses.fields(getattr(cfg, section))}
            assert set(doc[section]) <= fields, section
            for name in fields - set(doc[section]):
                assert f"`{section}.{name}`" in readme, f"README omits {section}.{name}"

    def test_out_of_memory_names_n_pairs(self, tmp_path, capsys, monkeypatch):
        def no_memory(cfg):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(protocol, "run_session", no_memory)
        cfg = session_config(tmp_path, n_pairs=10**12)
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'n_pairs': 1000000000000") and err.count("\n") == 1

    def test_accidentals_past_the_poisson_limit_name_the_dark_rate(self, tmp_path, capsys):
        cfg = session_config(tmp_path, detector={"dark_rate": 1e30}, n_pairs=1_000_000)
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(
            "error: invalid session config: detector.dark_rate gives 1e+36 expected accidental coincidences"
        ) and err.count("\n") == 1

    def test_a_sifted_count_past_int64_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def one_full_key_cell(joint, stratum_idx, rng, det):
            return [2**63] + [0] * (len(joint) - 1)  # cell 0 is BBM92's first key cell

        monkeypatch.setattr(protocol, "sample_outcome_stream", one_full_key_cell)
        cfg = session_config(tmp_path)
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", (
            "error: invalid session config: n_pairs 50000 at detector.dark_rate 0 give 9223372036854775808"
            " sifted coincidences, which do not fit in memory\n"
        ))

    def test_accidentals_out_of_memory_name_the_dark_rate(self, tmp_path, capsys):
        # About 5e17 sifted bytes exceed the address space whatever the
        # overcommit mode.
        cfg = session_config(tmp_path, detector={"dark_rate": 1e12}, n_pairs=1_000_000)
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: invalid session config: n_pairs 1000000 at detector\.dark_rate 1e\+12"
            r" give \d{18} sifted coincidences, which do not fit in memory\n",
            err,
        )

    def test_largest_n_pairs_at_the_poisson_limit_names_the_key(self, tmp_path, capsys):
        # 2**63 - 1 pairs and as many accidentals: about 1.8e19 coincidences
        # and 9.2e18 sifted ones, past int64; the count in the message is
        # the exact one, never a wrapped one.
        n = 2**63 - 1
        dark_rate = measurement._POISSON_LAM_MAX / n
        cfg = session_config(tmp_path, detector={"efficiency": 1.0, "dark_rate": dark_rate}, n_pairs=n)
        assert cli.main(["session", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        match = re.fullmatch(
            rf"error: invalid session config: n_pairs {n} at detector\.dark_rate {dark_rate:g}"
            r" give (\d+) sifted coincidences, which do not fit in memory\n",
            err,
        )
        assert match, err
        expected = 0.5 * n + 0.5 * measurement._POISSON_LAM_MAX
        assert abs(int(match[1]) - expected) < 6 * math.sqrt(expected)

    def test_missing_protocol_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"source": {"label": "phi_plus"}}))
        assert cli.main(["session", str(path)]) == EXIT_USAGE
        assert "protocol" in capsys.readouterr().err

    def test_flag_overrides_file(self, tmp_path):
        cfg = session_config(tmp_path, n_pairs=10_000, seed=1)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["session", str(cfg), "--seed", "2", "--out", str(out1)]) == EXIT_OK
        assert cli.main(["session", str(cfg), "--seed", "2", "--out", str(out2)]) == EXIT_OK
        doc = json.loads(out1.read_text())
        assert doc["seed"] == 2
        assert out1.read_bytes() == out2.read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = session_config(tmp_path, channel={"kind": "depolarizing", "parameter": 0.2})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["session", str(cfg), "--out", str(a)]) == EXIT_OK
        assert cli.main(["session", str(cfg), "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_config_dir_env(self, tmp_path, monkeypatch):
        cfg = session_config(tmp_path, n_pairs=5_000)
        monkeypatch.setenv(cli.CONFIG_DIR_ENV, str(tmp_path))
        monkeypatch.chdir(tmp_path / "..")
        assert cli.main(["session", cfg.name, "--out", str(tmp_path / "r.json")]) == EXIT_OK

    def test_missing_config_io_error(self, tmp_path):
        assert cli.main(["session", str(tmp_path / "absent.json")]) == EXIT_IO

    def test_no_sifted_bits_validation_error(self, tmp_path, capsys):
        cfg = session_config(tmp_path, detector={"efficiency": 1e-9}, n_pairs=10)
        assert cli.main(["session", str(cfg)]) == EXIT_VALIDATION
        assert "no sifted bits" in capsys.readouterr().err


class TestThresholds:
    def test_text_output(self, capsys):
        assert cli.main(["thresholds"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "delta_collective  0.110028" in out
        assert "delta_individual  0.146447" in out
        assert "delta_mi_zero     0.046098" in out

    def test_json_output(self, tmp_path):
        out = tmp_path / "thr.json"
        assert cli.main(["thresholds", "--format", "json", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["delta_collective"] == pytest.approx(0.110028, abs=5e-6)
        assert doc["s_at_collective"] == pytest.approx(2.206, abs=1e-3)


class TestAnalyze:
    def test_maximal_fixture(self, fixtures_dir, tmp_path):
        out = tmp_path / "an.json"
        rc = cli.main(["analyze", str(fixtures_dir / "counts" / "phi_plus_maximal.txt"),
                       "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["chsh"]["S"] == pytest.approx(2 * SQ2, abs=0.02)
        assert doc["security"]["r"] == pytest.approx(1.0, abs=0.05)

    def test_paper_point_fixture(self, fixtures_dir, tmp_path):
        out = tmp_path / "an.json"
        rc = cli.main(["analyze", str(fixtures_dir / "counts" / "paper_point.txt"),
                       "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["chsh"]["S"] - 2.64) < 3 * doc["chsh"]["sigma_S"]

    @pytest.mark.parametrize("name", ["BBM92", "E91", "Bbm92"])
    def test_protocol_flag_reads_in_any_case(self, fixtures_dir, tmp_path, capsys, name):
        counts = str(fixtures_dir / "counts" / "paper_point.txt")
        results = []
        for value in (name, name.lower()):
            out = tmp_path / f"{value}.json"
            results.append((cli.main(["analyze", counts, "--protocol", value, "--out", str(out)]),
                            out.read_bytes() if out.exists() else None, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == (EXIT_OK if name.lower() == "bbm92" else EXIT_VALIDATION)

    def test_unknown_protocol_is_a_usage_error(self, fixtures_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", str(fixtures_dir / "counts" / "paper_point.txt"), "--protocol", "BB84" + LONG])
        assert exc.value.code == EXIT_USAGE
        line = capsys.readouterr().err.splitlines()[-1]
        assert "invalid choice: " + repr(qstate.echo("bb84" + LONG)) in line and len(line) < 200

    def test_corrupted_fixture_diagnostics(self, fixtures_dir, capsys):
        rc = cli.main(["analyze", str(fixtures_dir / "counts" / "bad_negative.txt")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "line 4" in err

    def test_window_that_subtracts_every_coincidence_is_named(self, fixtures_dir, capsys):
        # The file alone gives S = 2.82; at this window the subtraction, not
        # the file, leaves the H/V basis empty.
        counts = fixtures_dir / "counts" / "phi_plus_maximal.txt"
        assert cli.main(["analyze", str(counts), "--accidental-window", "0.001"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(
            "error: the accidental subtraction at window 0.001 removed every coincidence"
            " of the compatible basis at 0 deg polarization ("
        )
        assert err.count("\n") == 1

    def test_missing_file(self, tmp_path):
        assert cli.main(["analyze", str(tmp_path / "nope.txt")]) == EXIT_IO

    @pytest.mark.parametrize("window", [[], ["--accidental-window", "1e-40"]])
    def test_counts_past_the_64_bit_range_are_rejected(self, fixtures_dir, tmp_path, capsys, window):
        # Counts at 2**63 - 1 analyze; one digit more would overflow the
        # float arithmetic of the estimator and of the accidental estimate.
        lines = (fixtures_dir / "counts" / "phi_plus_maximal.txt").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
        counts = tmp_path / "counts.txt"
        for big in (str(2**63 - 1), "1" + "0" * 400):
            edited = [" ".join(line.split()[:2] + [big] * 3) if i >= row and line[:1].isdigit() else line
                      for i, line in enumerate(lines)]
            counts.write_text("\n".join(edited) + "\n")
            code = cli.main(["analyze", str(counts), *window, "--out", str(tmp_path / "an.json")])
            assert code == (EXIT_OK if len(big) < 20 else EXIT_VALIDATION)
        assert capsys.readouterr().err == (
            f"error: line {row + 1}: count in column 3 (singles_a) is above 2**63 - 1\n"
        )

    @pytest.mark.parametrize("window,code", [
        ("-1e-5", EXIT_USAGE), ("nan", EXIT_USAGE), ("inf", EXIT_USAGE), ("1e300", EXIT_VALIDATION),
    ])
    def test_untrusted_accidental_window(self, tmp_path, capsys, window, code):
        """A negative or non-finite window is a usage error; a huge one leaves no coincidences."""
        state = optics.werner_state(qstate.BellLabel.PHI_PLUS, 0.9)
        counts = tmp_path / "counts.txt"
        ingest.write_counts(
            ingest.synthesize_counts(state, qstate.BellLabel.PHI_PLUS, n_pairs_per_row=100_000, seed=7),
            counts,
        )
        assert cli.main(["analyze", str(counts), f"--accidental-window={window}"]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("--accidental-window" in err) == (code == EXIT_USAGE)


def run_python(*args):
    """A fresh interpreter that imports the package these tests imported, installed or not."""
    paths = (str(Path(ebqkd.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=False, env=env)


def run_module(*args):
    """``python -m ebqkd`` on the package these tests imported."""
    return run_python("-m", "ebqkd", *args)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("thresholds")
        assert proc.returncode == EXIT_OK
        assert "delta_collective" in proc.stdout

    def test_usage_exit_code(self):
        proc = run_module("no-such-command")
        assert proc.returncode == EXIT_USAGE

    def test_import_loads_no_scipy(self):
        """scipy is a test dependency only, and only a sweep's process pool needs
        multiprocessing: importing the package and its CLI leaves both unloaded."""
        proc = run_python("-c", (
            "import sys, ebqkd, ebqkd.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')))"
        ))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "[]"
