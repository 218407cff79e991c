"""Independent oracles the tests check library results against.

Each function here recomputes a quantity by a route the library does not
take (explicit grids, direct probability sums), so agreement is evidence
rather than tautology.
"""

import math

import numpy as np

from ebqkd.measurement import AnalyzerSetting, bob_flip
from ebqkd.optics import bell_state
from ebqkd.qstate import BellLabel, TwoQubitState

#: Polarization angles (radians) of the two key bases Eve measures in, H/V and D/A.
KEY_BASES_RAD = (0.0, math.pi / 4)

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def polarization_projector(angle_rad: float) -> np.ndarray:
    """2x2 projector onto linear polarization at ``angle_rad`` from H."""
    c = math.cos(angle_rad)
    s = math.sin(angle_rad)
    return np.array([[c * c, c * s], [c * s, s * s]])


def joint_probabilities(rho: np.ndarray, a: AnalyzerSetting, b: AnalyzerSetting) -> np.ndarray:
    """``(++, +-, -+, --)`` as Tr(rho (P_a x P_b)) over the four port projectors."""
    alpha = a.polarization_angle_rad
    beta = b.polarization_angle_rad
    return np.array([
        np.trace(np.asarray(rho) @ np.kron(polarization_projector(alpha + i * math.pi / 2),
                                           polarization_projector(beta + j * math.pi / 2))).real
        for i in (0, 1)
        for j in (0, 1)
    ])


def port_vectors_stacked(settings) -> np.ndarray:
    """``qstate._port_vectors`` built by stacking, inserting and reshaping rows."""
    angle = 2.0 * np.array([s.polarization_angle_rad for s in settings])
    a = np.stack([np.sin(angle), np.zeros_like(angle), np.cos(angle)], axis=-1)
    return np.insert(np.stack([a, -a], axis=1).reshape(-1, 3), 0, 1.0, axis=1)


def ptrace_alice(rho: np.ndarray) -> np.ndarray:
    """Trace out Alice's qubit, returning Bob's 2x2 marginal."""
    return np.einsum("ajal->jl", np.asarray(rho).reshape(2, 2, 2, 2))


def ptrace_bob(rho: np.ndarray) -> np.ndarray:
    """Trace out Bob's qubit, returning Alice's 2x2 marginal."""
    return np.einsum("iaka->ik", np.asarray(rho).reshape(2, 2, 2, 2))


def intercept_strata(rho: np.ndarray, eve_fraction: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Intercept-resend mixture components by projection and partial trace.

    Eve projects Bob's photon onto her result, Alice keeps the normalised
    partial trace, and Eve forwards the projector itself.
    """
    rho = np.asarray(rho)
    states = [rho]
    probs = []
    for theta in KEY_BASES_RAD:
        for outcome in (0, 1):
            proj = polarization_projector(theta + outcome * math.pi / 2)
            unnorm = ptrace_bob(rho @ np.kron(np.eye(2), proj))
            p = float(np.trace(unnorm).real)
            probs.append(p)
            states.append(np.kron(unnorm / p if p > 0.0 else np.eye(2) / 2.0, proj))
    weights = np.concatenate(([1.0 - eve_fraction], eve_fraction * 0.5 * np.array(probs)))
    return states, weights


def pauli_bloch(rho: np.ndarray) -> np.ndarray:
    """Correlation matrix ``C[m, n] = Tr(rho sigma_m x sigma_n)`` by explicit traces."""
    pauli = (np.eye(2),) + _PAULI
    return np.array([[np.trace(np.asarray(rho) @ np.kron(sm, sn)).real for sn in pauli] for sm in pauli])


def density_from_bloch(c: np.ndarray) -> np.ndarray:
    """``rho = 1/4 sum C[m, n] sigma_m x sigma_n`` by explicit Kronecker products."""
    pauli = (np.eye(2),) + _PAULI
    return sum(c[m, n] * np.kron(sm, sn) for m, sm in enumerate(pauli) for n, sn in enumerate(pauli)) / 4.0


def depolarize(rho: np.ndarray, p: float, arm: str) -> np.ndarray:
    """``(1 - p) rho + p M`` with M the depolarized arm(s) next to the other marginal."""
    rho = np.asarray(rho)
    if arm == "both":
        mixed = np.eye(4) / 4.0
    elif arm == "a":
        mixed = np.kron(np.eye(2) / 2.0, ptrace_alice(rho))
    else:
        mixed = np.kron(ptrace_bob(rho), np.eye(2) / 2.0)
    return (1.0 - p) * rho + p * mixed


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    t = np.empty((3, 3))
    for i, si in enumerate(_PAULI):
        for j, sj in enumerate(_PAULI):
            t[i, j] = float(np.trace(np.asarray(rho) @ np.kron(si, sj)).real)
    return t


def chsh_max_bloch_grid(rho: np.ndarray, step_deg: float = 2.0) -> float:
    """Brute-force CHSH maximum over a grid of orthonormal Bloch frames.

    Any CHSH setting choice can be written via b_hat + b_hat' = 2 cos(phi) c
    and b_hat - b_hat' = 2 sin(phi) c' with c orthonormal to c'.  The CHSH
    combination is then 2 cos(phi) (a.Tc) + 2 sin(phi) (a'.Tc'); maximizing
    over the unit Alice directions (Cauchy-Schwarz) and the mixing angle phi
    analytically leaves 2 sqrt(|Tc|^2 + |Tc'|^2) per frame.  This scans all
    frames on a grid, never touching an eigendecomposition, so it is an
    independent check of the eigenvalue formula (which claims the maximum
    is reached at the top-two eigenvectors of T^T T).
    """
    t = correlation_matrix(rho)
    step = math.radians(step_deg)
    theta = np.arange(0.0, math.pi / 2 + step / 2, step)  # c and -c are equivalent
    phi = np.arange(0.0, 2 * math.pi, step)
    psi = np.arange(0.0, math.pi, step)  # c' and -c' are equivalent

    th, ph = np.meshgrid(theta, phi, indexing="ij")
    c = np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
    ).reshape(-1, 3)
    # Orthonormal in-plane directions completing each c to a frame.
    e1 = np.stack(
        [np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)], axis=-1
    ).reshape(-1, 3)
    e2 = np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(ph)], axis=-1).reshape(-1, 3)

    tc2 = np.sum((c @ t.T) ** 2, axis=1)
    te1 = e1 @ t.T
    te2 = e2 @ t.T
    best = 0.0
    for p in psi:
        tcp = math.cos(p) * te1 + math.sin(p) * te2
        val = tc2 + np.sum(tcp**2, axis=1)
        best = max(best, float(val.max()))
    return 2.0 * math.sqrt(best)


def chsh_max_linear_grid(correlator, step_deg: float = 2.0) -> float:
    """Brute-force CHSH maximum over linear-polarization analyzer angles.

    ``correlator(alpha_rad, beta_rad)`` supplies E for one angle pair; the
    scan covers all (a, a', b, b') combinations on the grid with the
    standard one-minus-sign combination (every odd-parity variant is an
    angle relabeling away, so the maximum over the grid is unaffected).
    """
    angles = np.arange(0.0, 180.0, step_deg)
    n = len(angles)
    e = np.empty((n, n))
    for i, alpha in enumerate(angles):
        for j, beta in enumerate(angles):
            e[i, j] = correlator(math.radians(alpha), math.radians(beta))
    best = -np.inf
    for i in range(n):  # chunk over a to bound memory; S[a', b, b'] for fixed a
        s = e[i][None, :, None] - e[i][None, None, :] + e[:, :, None] + e[:, None, :]
        best = max(best, float(s.max()))
    return best


def mutual_information_joint(p: np.ndarray) -> float:
    """I(A:B) by the direct KL form sum p log2( p / (p_a p_b) )."""
    p = np.asarray(p, dtype=float).reshape(2, 2)
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    total = 0.0
    for a in (0, 1):
        for b in (0, 1):
            if p[a, b] > 0:
                total += p[a, b] * math.log2(p[a, b] / (pa[a] * pb[b]))
    return total


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


_IDEAL_CACHE: dict[BellLabel, TwoQubitState] = {}


def _ideal_state(label: BellLabel) -> TwoQubitState:
    if label not in _IDEAL_CACHE:
        _IDEAL_CACHE[label] = bell_state(label, math.pi / 4)
    return _IDEAL_CACHE[label]


def ideal_correlator(label: BellLabel, pol_rad: float) -> float:
    """Born-rule E(t, t) of the maximal Bell state ``label`` with both
    analyzers at polarization angle ``pol_rad`` (the library uses a
    closed form)."""
    setting = AnalyzerSetting.from_polarization(math.degrees(pol_rad))
    p = joint_probabilities(_ideal_state(label).rho, setting, setting)
    return float(p[0] + p[3] - p[1] - p[2])


def sample_cell_counts_grouped(bloch, n, a_settings, b_settings, rng) -> np.ndarray:
    """Cell counts of ``n`` pairs, drawn setting pair by setting pair.

    ``bloch`` is a (possibly sub-normalised) correlation matrix whose trace
    ``C[0, 0]`` is the probability that a pair is coincident.  One
    multinomial splits the pairs over the setting pairs (uniform, times
    that trace) and "not coincident" (the rest, none above a trace of 1);
    then each setting pair splits its coincidences over the four outcomes
    by the kron/trace Born rule of the density matrix.  Returns the counts
    of the cells ``(a * n_b + b) * 4 + outcome`` followed by "not
    coincident".  The library draws the coincidences in one binomial and
    their cells in one multinomial instead.
    """
    rho = density_from_bloch(bloch / bloch[0, 0])
    n_pairs = len(a_settings) * len(b_settings)
    coincident = min(1.0, bloch[0, 0])
    per_pair = rng.multinomial(n, [coincident / n_pairs] * n_pairs + [1.0 - coincident])
    counts = []
    for k, (a, b) in enumerate((a, b) for a in a_settings for b in b_settings):
        p = joint_probabilities(rho, a, b).clip(0.0, 1.0)
        counts.extend(rng.multinomial(per_pair[k], p / p.sum()))
    return np.array(counts + [per_pair[-1]])


def outcomes_by_setting_group(blochs, stratum_idx, a_settings, b_settings, pair_idx, rng) -> np.ndarray:
    """Per-pair joint outcomes for given setting pairs, one group at a time.

    One ``rng.random(n)`` call draws a uniform per pair in stream order.
    The group key ``stratum * n_a * n_b + pair`` is visited in ascending
    order of its distinct values; each group's members are found by a scan
    of the whole stream, and each member's outcome is
    ``searchsorted(cdf, u, side="right")`` in the group's normalised CDF,
    from the Born-rule distribution taken by kron/trace from the density
    matrix of its stratum's correlation matrix.
    """
    u = rng.random(len(stratum_idx))
    out = np.zeros(len(stratum_idx), dtype=np.uint8)
    n_pairs = len(a_settings) * len(b_settings)
    key = stratum_idx.astype(np.int64) * n_pairs + pair_idx
    for group in np.unique(key):
        members = np.nonzero(key == group)[0]
        si, rest = divmod(int(group), n_pairs)
        ai, bi = divmod(rest, len(b_settings))
        p = joint_probabilities(density_from_bloch(blochs[si]), a_settings[ai], b_settings[bi]).clip(0.0, 1.0)
        cdf = np.cumsum(p / p.sum())
        cdf /= cdf[-1]
        out[members] = cdf.searchsorted(u[members], side="right")
    return out


def intercept_resend_strata(rho, a_settings, b_settings, pair_idx, eve_fraction, rng) -> np.ndarray:
    """Per-pair outcomes under intercept-resend with Eve's draws made.

    Three Eve draws per pair (interception, basis, result), her stratum by
    masked assignment into an int64 array, then
    :func:`outcomes_by_setting_group` over the partial-trace strata.  The library draws from their mixture
    instead, which has the same outcome distribution.
    """
    n = len(pair_idx)
    states, weights = intercept_strata(rho, eve_fraction)
    stratum_idx = np.zeros(n, dtype=np.int64)
    if eve_fraction:
        intercepted = rng.random(n) < eve_fraction
        eve_basis = rng.integers(0, 2, size=n)
        p_plus = weights[[1, 3]] / (weights[[1, 3]] + weights[[2, 4]])
        eve_outcome = (rng.random(n) >= p_plus[eve_basis]).astype(np.int64)
        stratum_idx[intercepted] = 1 + 2 * eve_basis[intercepted] + eve_outcome[intercepted]
    blochs = np.array([pauli_bloch(r) for r in states])
    return outcomes_by_setting_group(blochs, stratum_idx, a_settings, b_settings, pair_idx, rng)


def session_cells_strata(kind, rho, det, eve_fraction, n_pairs, rng) -> np.ndarray:
    """Coincident cells ``(a * n_b + b) * 4 + outcome`` drawn pair by pair.

    Two int64 setting draws (Alice, then Bob), one detection uniform per
    arm, then :func:`intercept_resend_strata`; no accidentals.
    """
    n_b = len(kind.bob_hwp_deg)
    a_idx = rng.integers(0, len(kind.alice_hwp_deg), size=n_pairs)
    b_idx = rng.integers(0, n_b, size=n_pairs)
    coincident = (rng.random(n_pairs) < det.eff_alice) & (rng.random(n_pairs) < det.eff_bob)
    pair_idx = a_idx * n_b + b_idx
    outcomes = intercept_resend_strata(
        rho, kind.alice_settings(), kind.bob_settings(), pair_idx, eve_fraction, rng
    )
    return (pair_idx * 4 + outcomes)[coincident]


def cell_probabilities(kind, rho, eve_fraction) -> np.ndarray:
    """Probability of each coincident cell: uniform setting pair times the
    kron/trace Born rule of the partial-trace strata mixture."""
    states, weights = intercept_strata(rho, eve_fraction)
    mixture = sum(w * s for w, s in zip(weights, states))
    p = np.array([
        joint_probabilities(mixture, a, b)
        for a in kind.alice_settings()
        for b in kind.bob_settings()
    ]).ravel()
    return p / p.sum()


def sift_masked(kind, label: BellLabel, a_idx, b_idx, outcomes):
    """``(kept, bits_alice, bits_bob)`` by one mask pass per matched basis
    over separate Alice/Bob setting and outcome streams; the library sifts
    one cell stream with setting-pair lookup tables."""
    keep = np.zeros(len(a_idx), dtype=bool)
    flip = np.zeros(len(a_idx), dtype=bool)
    for i, j in kind.matched_pairs():
        in_basis = (a_idx == i) & (b_idx == j)
        keep |= in_basis
        if bob_flip(label, math.radians(2.0 * kind.alice_hwp_deg[i])):
            flip |= in_basis
    kept = np.nonzero(keep)[0]
    bits_a = (outcomes[kept] >> 1).astype(np.uint8)
    bits_b = ((outcomes[kept] & 1) ^ flip[kept]).astype(np.uint8)
    return kept, bits_a, bits_b
