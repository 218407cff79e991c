"""The benchmark's three workloads: inputs from a seed, one op, its check.

Every op input is a pure function of ``(seed, op index)``, so a run can
stop at any op and a traced pass can replay the exact ops of an untraced
one.  Ops are arranged in blocks of :attr:`block` that hold one op of every
cost class, and the timed pass runs whole blocks, so latency percentiles
always see the same mix.

* ``session``: ``protocol.run_session`` + ``protocol.security_report`` at
  2e6 pairs.  Per-pair sampling and sifting do almost all the work and
  memory is O(n_pairs).  The check holds the key funnel (coincident,
  sifted, disclosed) to the model, so a faster engine must keep the
  physics.
* ``sweep``: ``cli.run_sweep`` over a 7-point grid at 1e9 pairs per
  setting.  The Born-rule table, state validation and the count sampler do
  the work; no per-pair arrays exist.
* ``analyze``: ``ingest.parse_counts`` + ``ingest.analyze_counts`` on
  ``qkd-counts/1`` files the benchmark writes itself from a closed-form
  Malus-law model, so the inputs do not move when the program's samplers
  change.  One file in eight is malformed and must be rejected.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
from types import SimpleNamespace

import numpy as np

LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")

#: Checks allow this many standard deviations between estimate and model.
N_SIGMA = 6.0


def op_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    tag = int.from_bytes(workload.encode(), "little")
    return np.random.default_rng([seed, tag, index])


def child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _label(index: int, kinds: int) -> str:
    """Label of op ``index``: each block shifts the labels by one, so one
    cycle of ``kinds * 4`` ops pairs every cost class with every label."""
    return LABELS[(index // kinds + index) % len(LABELS)]


class Session:
    name = "session"
    work_unit = "pairs"
    #: (protocol, channel) cost classes; one op of each per block.
    KINDS = (("bbm92", "werner"), ("e91", "werner"), ("bbm92", "intercept"), ("e91", "intercept"))
    block = len(KINDS)
    trace_ops = 4 * len(KINDS)
    N_PAIRS = 2_000_000

    def __init__(self, prog: SimpleNamespace, seed: int):
        self.prog = prog
        self.seed = seed

    def op_input(self, index: int):
        p = self.prog
        kind, channel = self.KINDS[index % len(self.KINDS)]
        rng = op_rng(self.seed, self.name, index)
        source = p.optics.SourceModel(
            p.qstate.BellLabel(_label(index, len(self.KINDS))),
            epsilon_rad=math.pi / 4 - rng.uniform(0.0, 0.05),
            hom_visibility=rng.uniform(0.95, 1.0),
        )
        model = p.optics.ChannelModel
        return p.protocol.SessionConfig(
            kind=p.protocol.protocol_by_name(kind),
            source=source,
            channel=model.werner(0.9) if channel == "werner" else model.intercept_resend(0.25),
            n_pairs=self.N_PAIRS,
            seed=child_seed(rng),
        )

    def run(self, cfg):
        record = self.prog.protocol.run_session(cfg)
        return record, self.prog.protocol.security_report(cfg, record)

    def work(self, cfg) -> int:
        return cfg.n_pairs

    def malformed(self, cfg) -> bool:
        return False

    def check(self, cfg, out) -> str | None:
        if isinstance(out, BaseException):
            return f"raised {out!r}"
        record, _ = out
        retained = len(record.key_bits_alice)
        if not record.disclosed_length + retained == record.sifted_length <= record.n_coincident:
            return (
                f"funnel broken: disclosed {record.disclosed_length} + retained {retained}"
                f" vs sifted {record.sifted_length}, coincident {record.n_coincident}"
            )
        # Funnel shares from the model: both arms detect (plus Poisson
        # accidentals), bases are drawn uniformly, and a fixed fraction of
        # the sifted bits is disclosed.
        detector, n = cfg.detector, cfg.n_pairs
        p_coinc = detector.coincidence_efficiency()
        accidentals = detector.expected_accidentals(n)
        expected = n * p_coinc + accidentals
        if abs(record.n_coincident - expected) > N_SIGMA * math.sqrt(n * p_coinc * (1.0 - p_coinc) + accidentals):
            return f"{record.n_coincident} coincidences vs {expected} expected"
        share = len(cfg.kind.matched_pairs()) / (len(cfg.kind.alice_hwp_deg) * len(cfg.kind.bob_hwp_deg))
        expected = record.n_coincident * share
        if abs(record.sifted_length - expected) > N_SIGMA * math.sqrt(expected * (1.0 - share)):
            return f"{record.sifted_length} sifted vs {expected} expected"
        if record.disclosed_length != max(1, round(cfg.qber_sample_fraction * record.sifted_length)):
            return f"{record.disclosed_length} disclosed of {record.sifted_length} sifted"
        p = self.prog
        state = p.optics.apply_channel(p.optics.generate(cfg.source), cfg.channel)
        avg = p.measurement.intercept_average_state(state, cfg.channel.eve_fraction)
        label = cfg.source.label
        # Both matched bases are equally likely, so the disclosed sample's
        # expected error rate is the mean of the two basis QBERs.
        pols = [math.radians(2.0 * cfg.kind.alice_hwp_deg[i]) for i, _ in cfg.kind.matched_pairs()]
        qber = sum(p.measurement.qber_for_basis(avg, label, pol) for pol in pols) / len(pols)
        sigma = math.sqrt(qber * (1.0 - qber) / record.disclosed_length)
        if abs(record.qber_hat - qber) > N_SIGMA * sigma:
            return f"qber_hat {record.qber_hat} vs analytic {qber} (sigma {sigma})"
        if cfg.kind.chsh_pairs:
            s = p.chsh.s_analytic(avg, p.chsh.canonical_settings(label)).s
            est = record.chsh_subset
            if est is None or abs(est.s - s) > N_SIGMA * est.sigma_s:
                return f"E91 S {est} vs analytic {s}"
        return None


class Sweep:
    name = "sweep"
    work_unit = "points"
    #: Mechanism -> valid grid range; one op of each per block.
    RANGES = {
        "werner": (0.0, 1.0),
        "imbalance": (0.0, math.pi / 2),
        "hom_visibility": (0.0, 1.0),
        "intercept_fraction": (0.0, 1.0),
    }
    block = len(RANGES)
    trace_ops = 4 * 4 * len(RANGES)
    GRID_POINTS = 7
    N_PAIRS = 10**9

    def __init__(self, prog: SimpleNamespace, seed: int):
        self.prog = prog
        self.seed = seed

    def op_input(self, index: int):
        p = self.prog
        mechanism = tuple(self.RANGES)[index % len(self.RANGES)]
        lo, hi = self.RANGES[mechanism]
        rng = op_rng(self.seed, self.name, index)
        grid = tuple(float(v) for v in np.sort(rng.uniform(lo, hi, self.GRID_POINTS)))
        spec = p.cli.SweepSpec(
            mechanism, grid, n_pairs=self.N_PAIRS, label=p.qstate.BellLabel(_label(index, len(self.RANGES)))
        )
        return spec, child_seed(rng)

    def run(self, inp):
        spec, seed = inp
        return self.prog.cli.run_sweep(spec, seed, workers=1)

    def work(self, inp) -> int:
        return len(inp[0].grid)

    def malformed(self, inp) -> bool:
        return False

    def check(self, inp, out) -> str | None:
        if isinstance(out, BaseException):
            return f"raised {out!r}"
        if len(out) != len(inp[0].grid):
            return f"{len(out)} rows for {len(inp[0].grid)} grid points"
        for row in out:
            if not all(math.isfinite(v) for v in row.values()):
                return f"non-finite column in {row}"
            if abs(row["S_sampled"] - row["S_analytic"]) > N_SIGMA * row["sigma_S"]:
                return f"S_sampled off S_analytic by more than {N_SIGMA} sigma_S: {row}"
        return None


# HWP angle pairs of the canonical CHSH settings and of each protocol's
# matched key bases, before expansion over both output ports.
_CHSH_HWP = ((0.0, 11.25), (0.0, 33.75), (22.5, 11.25), (22.5, 33.75))
_KEY_HWP = {"bbm92": ((0.0, 0.0), (22.5, 22.5)), "e91": ((11.25, 11.25), (22.5, 22.5))}


def hwp_rows(layout: str) -> tuple[tuple[float, float], ...]:
    """Every (alice_hwp, bob_hwp) row of a full analysis file."""
    rows: dict[tuple[float, float], None] = {}
    for a, b in _CHSH_HWP + _KEY_HWP[layout]:
        for ah in (a, (a + 45.0) % 180.0):
            for bh in (b, (b + 45.0) % 180.0):
                rows[(ah, bh)] = None
    return tuple(rows)


def malus(label: str, alpha: float, beta: float) -> float:
    """P(both transmit) for a maximal Bell state at polarization angles (rad)."""
    return {
        "phi_plus": 0.5 * math.cos(alpha - beta) ** 2,
        "phi_minus": 0.5 * math.cos(alpha + beta) ** 2,
        "psi_plus": 0.5 * math.sin(alpha + beta) ** 2,
        "psi_minus": 0.5 * math.sin(alpha - beta) ** 2,
    }[label]


#: Ways a file is made malformed; each must be rejected with CountFileError.
CORRUPTIONS = ("version", "negative", "duplicate", "missing_row", "non_integer", "unknown_state")


@dataclasses.dataclass(frozen=True)
class CountsFile:
    data: bytes
    layout: str
    accidental_window: float | None
    expected_s: float | None  # None: malformed, must be rejected
    corruption: str | None = None


def counts_file(seed: int, index: int) -> CountsFile:
    """A ``qkd-counts/1`` file of a Werner-mixed Bell state, from the seed.

    Pair counts per row are log-uniform in [2e4, 2e6] and the Werner weight
    in [0.85, 0.98], so coincidences range from about 1e2 to 1e6 per row.
    Half the files carry accidentals ``singles_a * singles_b * window /
    seconds`` that the op subtracts again by passing the window.  For the
    canonical settings S = 2 sqrt(2) w for every label.
    """
    rng = op_rng(seed, "analyze", index)
    kind = index % 16
    label = LABELS[kind % 4]
    layout = ("bbm92", "e91")[kind // 4 % 2]
    w = rng.uniform(0.85, 0.98)
    n = 10 ** rng.uniform(math.log10(2e4), math.log10(2e6))
    seconds = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
    window = 0.005 * seconds / n if kind >= 8 else None
    rows = []
    for a_hwp, b_hwp in hwp_rows(layout):
        p = w * malus(label, math.radians(2 * a_hwp), math.radians(2 * b_hwp)) + (1.0 - w) / 4.0
        singles_a, singles_b = (int(s) for s in rng.poisson(n, 2))
        accidental = singles_a * singles_b * window / seconds if window else 0.0
        rows.append([f"{a_hwp:g}", f"{b_hwp:g}", str(singles_a), str(singles_b), str(int(rng.poisson(n * p + accidental)))])
    rows = [rows[i] for i in rng.permutation(len(rows))]
    header = ["format: qkd-counts/1", f"state: {label}", f"seconds-per-row: {seconds:g}"]
    corruption = CORRUPTIONS[index // 8 % len(CORRUPTIONS)] if index % 8 == 7 else None
    if corruption == "version":
        header[0] = "format: qkd-counts/2"
    elif corruption == "unknown_state":
        header[1] = "state: phi_zero"
    elif corruption == "negative":
        rows[0][4] = f"-{rows[0][4]}"
    elif corruption == "non_integer":
        rows[0][4] = f"{rows[0][4]}.5"
    elif corruption == "duplicate":
        rows.append(list(rows[0]))
    elif corruption == "missing_row":
        rows.pop()
    lines = ["# synthetic acquisition, benchmark input"] + header
    lines.append("# alice_hwp_deg bob_hwp_deg singles_a singles_b coincidences")
    lines += [" ".join(row) + ("  # gain-corrected" if i % 5 == 4 else "") for i, row in enumerate(rows)]
    return CountsFile(
        data=("\n".join(lines) + "\n").encode(),
        layout=layout,
        accidental_window=window,
        expected_s=None if corruption else 2.0 * math.sqrt(2.0) * w,
        corruption=corruption,
    )


class Analyze:
    name = "analyze"
    work_unit = "files"
    block = 8
    POOL = 96
    trace_ops = 5 * POOL

    def __init__(self, prog: SimpleNamespace, seed: int):
        self.prog = prog
        self.seed = seed
        self.files = [counts_file(seed, i) for i in range(self.POOL)]

    def op_input(self, index: int) -> CountsFile:
        return self.files[index % self.POOL]

    def run(self, f: CountsFile):
        ingest = self.prog.ingest
        record = ingest.parse_counts(f.data)
        kind = self.prog.protocol.protocol_by_name(f.layout)
        return ingest.analyze_counts(record, protocol=kind, accidental_window=f.accidental_window)

    def work(self, f: CountsFile) -> int:
        return 1

    def malformed(self, f: CountsFile) -> bool:
        """True for an input the program must reject."""
        return f.expected_s is None

    def check(self, f: CountsFile, out) -> str | None:
        if f.expected_s is None:
            if isinstance(out, self.prog.ingest.CountFileError):
                return None
            return f"{f.corruption} file not rejected with CountFileError: {out!r}"
        if isinstance(out, BaseException):
            return f"raised {out!r}"
        estimate, _ = out
        if abs(estimate.s - f.expected_s) > N_SIGMA * estimate.sigma_s:
            return f"S {estimate.s} +/- {estimate.sigma_s} vs closed form {f.expected_s}"
        return None


WORKLOADS = {cls.name: cls for cls in (Session, Sweep, Analyze)}


def canonical(value):
    """A deterministic, exact, hashable rendering of an op's output."""
    if isinstance(value, BaseException):
        return (type(value).__name__, str(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple((f.name, canonical(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, hashlib.sha256(value.tobytes()).hexdigest())
    if isinstance(value, dict):
        return tuple(sorted((canonical(k), canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, enum.Enum):
        return value.value
    return repr(value)


def digest(value) -> str:
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()
