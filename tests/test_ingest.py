import dataclasses
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebqkd import chsh, ingest
from ebqkd.ingest import CountFileError, analyze_counts, parse_counts, synthesize_counts, write_counts
from ebqkd.measurement import AnalyzerSetting, CoincidenceRow, CoincidenceTable, DetectorModel, hwp_key
from ebqkd.optics import bell_state, werner_state
from ebqkd.protocol import BBM92, E91, estimate
from ebqkd.qstate import BellLabel

SQ2 = math.sqrt(2.0)


#: Row tokens in and out of the grammar: signs, leading zeros, underscores,
#: non-ASCII and hexadecimal digits, non-finite and out-of-range numbers, the
#: edges of the 64-bit count range, and a count past int()'s digit limit.
_ROW_ANGLES = ["0", "11.25", "-0.0", "+5", "007"]
_ROW_COUNTS = ["0", "180", "+5", "007", str(2**63 - 1), "0" * 4400 + "7"]
_ROW_TOKENS = sorted(
    {*_ROW_ANGLES, *_ROW_COUNTS, "180", "nan", "inf", "1e400", "-5", "1_0", "\u0663", "0x10", str(2**63)}
)


@st.composite
def _row_lines(draw) -> str:
    """A row of valid tokens with one or two at times replaced from
    _ROW_TOKENS, cut to 4 or grown to 6 tokens at times, and one gap of
    non-ASCII whitespace at times."""
    angle, count = st.sampled_from(_ROW_ANGLES), st.sampled_from(_ROW_COUNTS)
    tokens = [draw(angle), draw(angle), draw(count), draw(count), draw(count)]
    for _ in range(draw(st.sampled_from([1, 1, 0, 2]))):
        tokens[draw(st.integers(0, 4))] = draw(st.sampled_from(_ROW_TOKENS))
    tokens = (tokens + ["0"])[: draw(st.sampled_from([5, 5, 5, 4, 6]))]
    seps = [draw(st.sampled_from([" ", "\t", "  "])) for _ in tokens[1:]]
    seps[draw(st.integers(0, len(seps) - 1))] = draw(st.sampled_from([" ", " ", " ", "\u00a0", "\u2003", "\u3000"]))
    return tokens[0] + "".join(sep + token for sep, token in zip(seps, tokens[1:]))


class TestParse:
    def test_good_file(self, fixtures_dir):
        rec = parse_counts(fixtures_dir / "counts" / "phi_plus_maximal.txt")
        assert rec.version == 1
        assert rec.state_label is BellLabel.PHI_PLUS
        assert rec.seconds_per_row == 1.0
        assert len(rec.rows) == 24
        assert rec.find(0.0, 11.25) is not None

    def test_accepts_bytes_and_streams(self, fixtures_dir):
        path = fixtures_dir / "counts" / "phi_plus_maximal.txt"
        raw = path.read_bytes()
        assert len(parse_counts(raw).rows) == 24
        with open(path, encoding="utf-8") as fh:
            assert len(parse_counts(fh).rows) == 24

    @staticmethod
    def _sources(data: bytes, tmp_path):
        """The same bytes as a path, raw bytes, a binary and a text stream."""
        path = tmp_path / "counts.txt"
        path.write_bytes(data)
        return {"path": path, "bytes": data, "binary stream": io.BytesIO(data), "text stream": io.StringIO(data.decode())}

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_a_comment_runs_to_the_end_of_the_line(self, fixtures_dir, tmp_path, sep):
        # str.splitlines ends a line at these too; a comment holding one
        # used to leave its tail to be read as a row.
        text = (fixtures_dir / "counts" / "phi_plus_maximal.txt").read_text(encoding="utf-8")
        expected = parse_counts(text.encode())
        lines = text.split("\n")
        fmt = next(i for i, line in enumerate(lines) if line.startswith("format:"))
        lines[fmt] += f"  # acquired by lab A{sep}B setup"
        for kind, source in self._sources("\n".join(lines).encode(), tmp_path).items():
            assert parse_counts(source) == expected, kind

    def test_a_byte_order_mark_is_skipped_for_every_source(self, fixtures_dir, tmp_path):
        # Some editors save UTF-8 with a byte-order mark; it used to stay in
        # front of "format:" and fail the header check of line 1.
        data = (fixtures_dir / "counts" / "phi_plus_maximal.txt").read_bytes()
        expected = parse_counts(data)
        for kind, source in self._sources(b"\xef\xbb\xbf" + data, tmp_path).items():
            assert parse_counts(source) == expected, kind

    def test_only_a_leading_byte_order_mark_is_skipped(self, fixtures_dir):
        data = (fixtures_dir / "counts" / "phi_plus_maximal.txt").read_bytes()
        with pytest.raises(CountFileError, match=r"^line 1: expected 'format: qkd-counts/1' header$"):
            parse_counts(b"\xef\xbb\xbf" * 2 + data)
        with pytest.raises(CountFileError, match=r"^line 2: unknown header key '\\ufeffstate'$"):
            parse_counts(data.replace(b"state:", b"\xef\xbb\xbfstate:"))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lines_end_at_lf_crlf_and_cr_for_every_source(self, tmp_path, newline):
        lines = ["format: qkd-counts/1", "state: phi_plus", "seconds-per-row: 1", "# \x0c\u2028", "0 0 1 1 1", "0 0 2 2 2"]
        for kind, source in self._sources(newline.join(lines).encode(), tmp_path).items():
            with pytest.raises(CountFileError, match=r"^line 6: duplicate angle pair \(0\.0, 0\.0\), first seen on line 5$"):
                parse_counts(source)

    @pytest.mark.parametrize(
        "name,fragment,line",
        [
            ("bad_negative.txt", "negative count", 4),
            ("bad_duplicate.txt", "duplicate angle pair", 6),
            ("bad_version.txt", "unknown format version", 1),
            ("bad_malformed.txt", "malformed row", 4),
            ("bad_count_not_integer.txt", "not an integer", 4),
            ("bad_angle_range.txt", "HWP angles", 4),
            ("bad_no_format.txt", "expected 'format", 1),
            ("bad_unknown_header.txt", "unknown header key", 4),
            ("bad_duplicate_header.txt", "duplicate header key", 3),
            ("bad_angle_not_number.txt", "decimal degrees", 4),
        ],
    )
    def test_errors_name_the_line(self, fixtures_dir, name, fragment, line):
        with pytest.raises(CountFileError, match=fragment) as err:
            parse_counts(fixtures_dir / "counts" / name)
        assert err.value.line == line
        assert f"line {line}" in str(err.value)

    def test_a_record_refuses_a_repeated_pair_however_built(self, fixtures_dir):
        # The record's row index is the one duplicate check: rows made by
        # hand (line 0) or appended to a parsed record are refused too, so
        # nothing can analyse or write a file that parse_counts rejects.
        rows = (ingest.CountRow(0.0, 11.25, 1000, 1000, 500), ingest.CountRow(45.0, 11.25, 1000, 1000, 80))
        with pytest.raises(CountFileError, match=r"^duplicate angle pair \(0\.0, 11\.25\)$") as err:
            ingest.CountRecordFile(1, BellLabel.PHI_PLUS, 1.0, rows + (ingest.CountRow(0.0, 11.25, 9, 9, 9),))
        assert err.value.line is None
        rec = parse_counts(fixtures_dir / "counts" / "phi_plus_maximal.txt")
        row = rec.rows[3]
        pair = rf"duplicate angle pair \({row.alice_hwp_deg}, {row.bob_hwp_deg}\)"
        pair += f", first seen on line {row.line}"
        with pytest.raises(CountFileError, match=rf"^{pair}$"):
            dataclasses.replace(rec, rows=rec.rows + (dataclasses.replace(row, line=0),))
        with pytest.raises(CountFileError, match=rf"^line {row.line}: {pair}$"):
            dataclasses.replace(rec, rows=rec.rows + (row,))

    def test_a_projection_at_t_and_t_plus_90_is_a_duplicate(self, fixtures_dir):
        # Plates t and t + 90 analyze one axis: the two rows are one
        # projection, of which analyze would read only one.
        text = (fixtures_dir / "counts" / "phi_plus_maximal.txt").read_text(encoding="utf-8")
        first = parse_counts(text.encode()).find(0.0, 11.25).line
        repeat = len(text.splitlines()) + 1
        with pytest.raises(CountFileError, match=(
            rf"^line {repeat}: duplicate angle pair \(90\.0, 101\.25\), first seen on line {first}$"
        )):
            parse_counts((text + "90 101.25 1 1 1\n").encode())

    def test_errors_name_the_column(self, fixtures_dir):
        with pytest.raises(CountFileError, match="column 5"):
            parse_counts(fixtures_dir / "counts" / "bad_negative.txt")
        with pytest.raises(CountFileError, match="column 1"):
            parse_counts(fixtures_dir / "counts" / "bad_angle_not_number.txt")

    def test_bad_seconds_header(self, fixtures_dir):
        with pytest.raises(CountFileError, match="seconds-per-row"):
            parse_counts(fixtures_dir / "counts" / "bad_seconds.txt")

    def test_empty_file(self, fixtures_dir):
        with pytest.raises(CountFileError, match="no rows"):
            parse_counts(fixtures_dir / "counts" / "bad_empty.txt")

    def test_headers_only(self, fixtures_dir):
        with pytest.raises(CountFileError, match="no rows"):
            parse_counts(fixtures_dir / "counts" / "bad_headers_only.txt")

    def test_missing_state_header(self, fixtures_dir):
        with pytest.raises(CountFileError, match="missing required header 'state'"):
            parse_counts(fixtures_dir / "counts" / "bad_missing_state.txt")

    def test_unknown_state(self, fixtures_dir):
        with pytest.raises(CountFileError, match="unknown state"):
            parse_counts(fixtures_dir / "counts" / "bad_unknown_state.txt")

    def test_invalid_utf8_is_a_count_file_error(self, tmp_path):
        data = b"format: qkd-counts/1\n\xff\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        for source in (data, path, io.BytesIO(data)):
            with pytest.raises(CountFileError, match="not valid UTF-8"):
                parse_counts(source)

    def test_comments_and_blank_lines_tolerated(self):
        text = (
            "# leading comment\n\n"
            "format: qkd-counts/1  # trailing comment\n"
            "state: psi_minus\n"
            "seconds-per-row: 2.5\n"
            "# a row follows\n"
            "10.5 20 7 8 9\n"
        )
        rec = parse_counts(text.encode())
        assert rec.state_label is BellLabel.PSI_MINUS
        assert rec.seconds_per_row == 2.5
        assert rec.rows[0].coincidences == 9
        assert rec.rows[0].line == 7

    @pytest.mark.parametrize("token", ["1_000", "\u0663", "1\u0660"])
    @pytest.mark.parametrize("col", range(5))
    def test_numbers_outside_the_grammar_name_their_column(self, col, token):
        # Python's int and float read digit-group underscores and non-ASCII
        # digits; the grammar has neither.
        row = ["10.5", "20", "7", "8", "9"]
        row[col] = token
        text = f"format: qkd-counts/1\nstate: phi_plus\nseconds-per-row: 1\n{' '.join(row)}\n"
        kind = "must be decimal degrees" if col < 2 else "is not an integer"
        with pytest.raises(CountFileError, match=f"line 4: malformed row: column {col + 1} .*{kind}"):
            parse_counts(text.encode())

    @pytest.mark.parametrize("col", range(2, 5))
    def test_counts_above_the_64_bit_range_name_their_column(self, col):
        # Past 4,300 digits Python's int() refuses a token; it is still
        # just above the range.  Leading zeros do not count towards it.
        row = ["10.5", "20", "7", "8", "9"]
        for token in (str(2**63 - 1), "0" * 5000 + str(2**63 - 1)):
            row[col] = token
            text = f"format: qkd-counts/1\nstate: phi_plus\nseconds-per-row: 1\n{' '.join(row)}\n"
            assert dataclasses.astuple(parse_counts(text.encode()).rows[0])[col] == 2**63 - 1
        for token in (str(2**63), "9" * 400, "9" * 5000, "0" * 5000 + str(2**63)):
            row[col] = token
            text = f"format: qkd-counts/1\nstate: phi_plus\nseconds-per-row: 1\n{' '.join(row)}\n"
            with pytest.raises(CountFileError, match=rf"^line 4: count in column {col + 1} .* above 2\*\*63 - 1$"):
                parse_counts(text.encode())

    @pytest.mark.parametrize("lines", [
        ["format: " + "v" * 5000],
        ["format: qkd-counts/1", "x" * 5000 + ": 1"],
        ["format: qkd-counts/1", "state: " + "x" * 5000, "seconds-per-row: 1", "0 0 1 1 1"],
        ["format: qkd-counts/1", "state: phi_plus", "seconds-per-row: " + "x" * 5000, "0 0 1 1 1"],
        ["format: qkd-counts/1", "state: phi_plus", "seconds-per-row: 1", "x" * 5000 + " 0 1 1 1"],
        ["format: qkd-counts/1", "state: phi_plus", "seconds-per-row: 1", "0 0 1 1 x" + "9" * 5000],
        ["format: qkd-counts/1", "state: phi_plus", "seconds-per-row: 1", "0 0 1 1 -" + "9" * 4000],
    ])
    def test_error_messages_do_not_grow_with_the_input(self, lines):
        with pytest.raises(CountFileError) as err:
            parse_counts("\n".join(lines).encode())
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "0.5\u0660"])
    def test_seconds_outside_the_grammar(self, token):
        text = f"format: qkd-counts/1\nstate: phi_plus\nseconds-per-row: {token}\n0 0 1 1 1\n"
        with pytest.raises(CountFileError, match="seconds-per-row is not a number"):
            parse_counts(text.encode())

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.sampled_from([b"", b"format: qkd-counts/1\nstate: phi_plus\nseconds-per-row: 1\n"]),
        body=st.one_of(
            st.binary(max_size=300),
            st.text(alphabet="0123456789 ._-+eEinfatx:\t\n#\u0663\u00a0", max_size=300).map(str.encode),
            st.text(max_size=100).map(lambda t: t.encode("utf-8", "surrogatepass")),
        ),
    )
    def test_arbitrary_bytes_parse_or_raise_count_file_error(self, head, body):
        try:
            parse_counts(head + body)
        except CountFileError:
            pass

    @settings(max_examples=500, deadline=None)
    @given(line=_row_lines())
    @example(line="0 11.25 1_0 7 8")
    @example(line="0 11.25 7 \u0663 8")
    @example(line="180 11.25 7 8 9")
    @example(line="0 nan 7 8 9")
    @example(line=f"0 0 7 8 {2**63}")
    def test_a_row_line_reads_as_it_does_token_by_token(self, line):
        # The one-check-per-line reader accepts a line only when the
        # per-token reader accepts it, with the same row, and otherwise
        # leaves the line to it, so the same error names the same column.
        def read(reader, arg):
            try:
                return repr(reader(arg, 4))
            except CountFileError as exc:
                return str(exc)

        assert read(ingest._parse_row, line) == read(ingest._parse_row_by_token, line.split())


def _records():
    """Count records with finite angles in [0, 180), distinct angle pairs,
    any nonnegative counts and any positive finite seconds per row."""
    angle = st.floats(0.0, 180.0, exclude_max=True)
    count = st.integers(0, 2**63 - 1)
    row = st.builds(ingest.CountRow, angle, angle, count, count, count)
    return st.builds(
        ingest.CountRecordFile,
        st.just(ingest.FORMAT_VERSION),
        st.sampled_from(BellLabel),
        st.floats(0.0, exclude_min=True, allow_infinity=False),
        st.lists(row, min_size=1, max_size=20, unique_by=lambda r: hwp_key(r.alice_hwp_deg, r.bob_hwp_deg))
        .map(tuple),
    )


def _written_and_parsed(record):
    buf = io.StringIO()
    write_counts(record, buf)
    parsed = parse_counts(buf.getvalue().encode())
    return dataclasses.replace(parsed, rows=tuple(dataclasses.replace(r, line=0) for r in parsed.rows))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(record=_records())
    def test_write_then_parse_gives_the_record(self, record):
        assert _written_and_parsed(record) == record

    def test_full_precision_settings_and_seconds_round_trip(self):
        # At 6 significant digits 11.2345678 would read back as 11.2346,
        # which no required angle pair matches, and 0.1234567 as 0.123457.
        settings = chsh.ChshSettings(*(AnalyzerSetting(t) for t in (0.0, 22.5, 11.2345678, 33.7654321)))
        rec = synthesize_counts(
            werner_state(BellLabel.PHI_PLUS, 0.9), BellLabel.PHI_PLUS, n_pairs_per_row=10_000, seed=3,
            settings=settings, seconds_per_row=0.1234567,
        )
        reparsed = _written_and_parsed(rec)
        assert reparsed == rec
        assert reparsed.seconds_per_row == 0.1234567
        assert analyze_counts(reparsed, settings=settings) == analyze_counts(rec, settings=settings)

    def test_serialize_parse_analyze_bit_for_bit(self):
        state = werner_state(BellLabel.PHI_PLUS, 0.9)
        rec = synthesize_counts(
            state, BellLabel.PHI_PLUS, n_pairs_per_row=50_000, seed=7,
            detector=DetectorModel(efficiency=0.8),
        )
        direct_est, direct_rep = analyze_counts(rec)
        buf = io.StringIO()
        write_counts(rec, buf)
        reparsed = parse_counts(buf.getvalue().encode())
        est, rep = analyze_counts(reparsed)
        assert est.s == direct_est.s
        assert est.sigma_s == direct_est.sigma_s
        assert rep == direct_rep

    def test_row_order_invariance(self):
        state = werner_state(BellLabel.PHI_PLUS, 0.85)
        rec = synthesize_counts(state, BellLabel.PHI_PLUS, n_pairs_per_row=20_000, seed=9)
        est, rep = analyze_counts(rec)
        shuffled = ingest.CountRecordFile(
            version=rec.version,
            state_label=rec.state_label,
            seconds_per_row=rec.seconds_per_row,
            rows=tuple(reversed(rec.rows)),
        )
        est2, rep2 = analyze_counts(shuffled)
        assert est2.s == est.s
        assert rep2 == rep


def _projector_rows(a, b, counts):
    """The four projector rows whose coincidences are one outcome quadruple."""
    a_hwp, b_hwp = a.hwp_angle_deg, b.hwp_angle_deg
    combos = [(ah, bh) for ah in (a_hwp, (a_hwp + 45) % 180) for bh in (b_hwp, (b_hwp + 45) % 180)]
    return [ingest.CountRow(ah, bh, 1000, 1000, c) for (ah, bh), c in zip(combos, counts)]


class TestSharedEstimator:
    @pytest.mark.parametrize("kind", [BBM92, E91])
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_file_route_matches_direct_table(self, kind, label):
        # One set of counts, two routes: written, parsed and analyzed as a
        # file, or handed to the estimator as a table.
        rng = np.random.default_rng([len(kind.alice_hwp_deg), list(BellLabel).index(label)])
        settings = chsh.canonical_settings(label)
        rows, file_rows = [], []
        for a, b in settings.pairs() + kind.key_pairs():
            counts = [int(c) for c in rng.integers(1, 500, 4)]
            rows.append(CoincidenceRow(a, b, *counts))
            file_rows += _projector_rows(a, b, counts)
        record = ingest.CountRecordFile(1, label, 1.0, tuple(file_rows))
        buf = io.StringIO()
        write_counts(record, buf)
        s_file, report_file = analyze_counts(parse_counts(buf.getvalue().encode()), protocol=kind)
        direct = estimate(CoincidenceTable(tuple(rows)), label, kind, settings)
        assert s_file == direct.chsh
        assert report_file == direct.report
        assert (report_file.e_b, report_file.e_p) == tuple(
            direct.per_basis_qber[pol] for pol in sorted(direct.per_basis_qber)
        )


class TestAnalyze:
    def test_maximal_phi_plus_fixture(self, fixtures_dir):
        rec = parse_counts(fixtures_dir / "counts" / "phi_plus_maximal.txt")
        est, rep = analyze_counts(rec)
        assert est.s == pytest.approx(2 * SQ2, abs=5 * est.sigma_s)
        assert rep.delta == pytest.approx(0.0, abs=1e-3)
        assert rep.r == pytest.approx(1.0, abs=0.05)
        assert rep.individual_bound_ok and rep.collective_bound_ok and rep.mi_positive

    def test_paper_point_fixture(self, fixtures_dir):
        # Row totals ~157 per CHSH setting pair tune sigma_S to ~0.12.
        rec = parse_counts(fixtures_dir / "counts" / "paper_point.txt")
        est, rep = analyze_counts(rec)
        assert est.sigma_s == pytest.approx(0.12, abs=0.02)
        assert abs(est.s - 2.64) < 3 * est.sigma_s

    def test_werner_078_boundary(self, fixtures_dir):
        # delta = 0.11 sits inside the individual bound, on the collective
        # boundary, and far past the key-rate zero.
        rec = parse_counts(fixtures_dir / "counts" / "werner_078.txt")
        est, rep = analyze_counts(rec)
        assert rep.delta == pytest.approx(0.11, abs=0.005)
        assert rep.individual_bound_ok
        assert not rep.mi_positive
        # marginal verdict must agree with the measured delta either way
        from ebqkd.security import thresholds
        assert rep.collective_bound_ok == (rep.delta < thresholds().delta_collective)

    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_rows_written_90_degrees_on_give_the_same_report(self, kind):
        # Every third row moves Alice's plate, every other row Bob's, by 90
        # degrees: the same projections, so the same counts table.
        rec = synthesize_counts(werner_state(BellLabel.PHI_PLUS, 0.9), BellLabel.PHI_PLUS,
                                n_pairs_per_row=10_000, seed=5, protocol=kind)
        moved = tuple(
            dataclasses.replace(r, alice_hwp_deg=r.alice_hwp_deg + 90.0 * (k % 3 == 0),
                                bob_hwp_deg=r.bob_hwp_deg + 90.0 * (k % 2 == 0))
            for k, r in enumerate(rec.rows)
        )
        buf = io.StringIO()
        write_counts(dataclasses.replace(rec, rows=moved), buf)
        moved_report = analyze_counts(parse_counts(buf.getvalue().encode()), protocol=kind)
        assert moved_report == analyze_counts(rec, protocol=kind)

    def test_missing_rows_listed(self):
        state = bell_state(BellLabel.PHI_PLUS)
        rec = synthesize_counts(state, BellLabel.PHI_PLUS, n_pairs_per_row=1000, seed=3)
        pruned = ingest.CountRecordFile(
            version=rec.version,
            state_label=rec.state_label,
            seconds_per_row=rec.seconds_per_row,
            rows=tuple(r for r in rec.rows if not (r.alice_hwp_deg == 0.0 and r.bob_hwp_deg == 11.25)),
        )
        with pytest.raises(CountFileError, match=r"missing required HWP angle pairs: \(0, 11.25\)"):
            analyze_counts(pruned)

    def test_e91_protocol_bases(self):
        state = bell_state(BellLabel.PSI_MINUS)
        rec = synthesize_counts(
            state, BellLabel.PSI_MINUS, n_pairs_per_row=50_000, seed=5, protocol=E91
        )
        est, rep = analyze_counts(rec, protocol=E91)
        assert est.s == pytest.approx(2 * SQ2, abs=5 * est.sigma_s)
        assert rep.delta == pytest.approx(0.0, abs=1e-3)

    def test_accidental_subtraction(self):
        state = bell_state(BellLabel.PHI_PLUS)
        rec = synthesize_counts(state, BellLabel.PHI_PLUS, n_pairs_per_row=10_000, seed=6)
        est_raw, _ = analyze_counts(rec)
        est_sub, _ = analyze_counts(rec, accidental_window=1e-9)
        # tiny window subtracts almost nothing
        assert est_sub.s == pytest.approx(est_raw.s, abs=0.05)
        # a huge window clamps everything to zero counts
        for window in (1.0, sys.float_info.max):  # singles_a * singles_b * max overflows to inf
            with pytest.raises((CountFileError, chsh.IncompleteTableError)):
                analyze_counts(rec, accidental_window=window)

    @pytest.mark.parametrize("window", [-1e-5, math.nan, math.inf, -math.inf])
    def test_accidental_window_must_be_finite_and_nonnegative(self, window):
        state = bell_state(BellLabel.PHI_PLUS)
        rec = synthesize_counts(state, BellLabel.PHI_PLUS, n_pairs_per_row=1000, seed=6)
        with pytest.raises(ValueError, match="accidental_window must be finite and >= 0"):
            analyze_counts(rec, accidental_window=window)

    def test_empty_key_basis_named(self):
        state = bell_state(BellLabel.PHI_PLUS)
        rec = synthesize_counts(state, BellLabel.PHI_PLUS, n_pairs_per_row=1000, seed=3)
        da = {22.5, 67.5}
        rows = tuple(
            dataclasses.replace(r, coincidences=0) if {r.alice_hwp_deg, r.bob_hwp_deg} <= da else r
            for r in rec.rows
        )
        with pytest.raises(CountFileError, match="zero coincidences in the compatible basis at 45 deg"):
            analyze_counts(dataclasses.replace(rec, rows=rows))

    def test_empty_chsh_row_is_incomplete(self):
        state = bell_state(BellLabel.PHI_PLUS)
        rec = synthesize_counts(state, BellLabel.PHI_PLUS, n_pairs_per_row=1000, seed=3)
        rows = tuple(
            dataclasses.replace(r, coincidences=0)
            if r.alice_hwp_deg in (0.0, 45.0) and r.bob_hwp_deg in (11.25, 56.25) else r
            for r in rec.rows
        )
        with pytest.raises(chsh.IncompleteTableError, match=r"zero total .*\(0, 22.5\)"):
            analyze_counts(dataclasses.replace(rec, rows=rows))

    def test_required_pairs_cover_chsh_and_bases(self):
        # The rows docs/counts-format.md lists: 16 CHSH projections, then
        # 8 key-basis projections per protocol.
        chsh_rows = {(a, b) for a in (0.0, 45.0, 22.5, 67.5) for b in (11.25, 56.25, 33.75, 78.75)}
        key_rows = {
            BBM92: {(a, b) for p in ((0.0, 45.0), (22.5, 67.5)) for a in p for b in p},
            E91: {(a, b) for p in ((11.25, 56.25), (22.5, 67.5)) for a in p for b in p},
        }
        for label in BellLabel:
            for kind, key in key_rows.items():
                pairs = ingest.required_hwp_pairs(chsh.canonical_settings(label), kind)
                assert len(pairs) == 24
                assert set(pairs) == chsh_rows | key


class TestUncertaintyReproduction:
    def test_sigma_tuned_rows_cover_s_true(self):
        # 100 seeded acquisitions at S_true = 2.64 with sigma_S ~ 0.12:
        # at least 99 land within 3 sigma.
        w = 2.64 / (2 * SQ2)
        state = werner_state(BellLabel.PHI_PLUS, w)
        hits = 0
        sigmas = []
        for seed in range(100):
            rec = synthesize_counts(
                state, BellLabel.PHI_PLUS, n_pairs_per_row=157, seed=seed,
                detector=DetectorModel(efficiency=1.0),
            )
            est, _ = analyze_counts(rec)
            sigmas.append(est.sigma_s)
            if abs(est.s - 2.64) < 3 * est.sigma_s:
                hits += 1
        assert hits >= 99
        assert np.mean(sigmas) == pytest.approx(0.12, abs=0.015)
