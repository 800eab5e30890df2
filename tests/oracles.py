"""Independent oracles used to derive expected values in the test suite.

Everything here deliberately avoids the package's own code paths: the 2x2
eigensolver is closed-form, the Kronecker product is explicit loops, the
rock correlation comes from arc-intersection geometry, the hidden
variable CHSH bound comes from brute-force enumeration, and the macroscopic
models are sampled by simulating their physical mechanisms rather than by
drawing from the package's tables.
"""

from __future__ import annotations

import math

import numpy as np


def eig2_hermitian(m: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Closed-form eigenpairs (value, unit eigenvector) of a 2x2 hermitian
    matrix, ascending by eigenvalue."""
    a = m[0, 0].real
    d = m[1, 1].real
    b = m[0, 1]
    half_gap = math.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
    mean = (a + d) / 2.0
    pairs = []
    for value in (mean - half_gap, mean + half_gap):
        if abs(b) > 1e-15:
            vec = np.array([b, value - a], dtype=complex)
        elif abs(value - a) <= abs(value - d):
            vec = np.array([1.0, 0.0], dtype=complex)
        else:
            vec = np.array([0.0, 1.0], dtype=complex)
        pairs.append((value, vec / np.linalg.norm(vec)))
    return pairs


def kron_loops(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product by explicit index loops (row-major convention)."""
    if x.ndim == 1:
        out = np.zeros(x.shape[0] * y.shape[0], dtype=complex)
        for i in range(x.shape[0]):
            for j in range(y.shape[0]):
                out[i * y.shape[0] + j] = x[i] * y[j]
        return out
    out = np.zeros((x.shape[0] * y.shape[0], x.shape[1] * y.shape[1]), dtype=complex)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            for k in range(y.shape[0]):
                for l in range(y.shape[1]):
                    out[i * y.shape[0] + k, j * y.shape[1] + l] = x[i, j] * y[k, l]
    return out


def _wrap(angle: float) -> float:
    return angle % (2.0 * math.pi)


def arc_intersection_length(center_1: float, center_2: float, half_width: float = math.pi / 2) -> float:
    """Length of the intersection of two circular arcs of the given half
    width centered at the given angles."""
    # work on the unwrapped line: translate arc 2 near arc 1 in both directions
    total = 0.0
    start_1 = _wrap(center_1 - half_width)
    start_2 = _wrap(center_2 - half_width)
    width = 2 * half_width
    for shift in (-2 * math.pi, 0.0, 2 * math.pi):
        s2 = start_2 + shift
        lo = max(start_1, s2)
        hi = min(start_1 + width, s2 + width)
        total += max(0.0, hi - lo)
    return total


def rock_correlation_by_arcs(theta_a: float, theta_b: float) -> float:
    """Fragment correlation from half-circle overlap geometry: station A fires
    +1 on the arc centered at theta_a, station B mirrors the arc at theta_b
    shifted by pi (opposite momentum)."""
    same_sign_arc = arc_intersection_length(theta_a, theta_b)
    p_same = same_sign_arc / math.pi  # both + or both -, by symmetry
    return -(2.0 * p_same - 1.0)


def rock_correlation_by_grid(theta_a: float, theta_b: float, n: int = 200_000) -> float:
    """Rock correlation by midpoint quadrature over the hidden direction."""
    lam = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    a = np.where(np.cos(theta_a - lam) > 0, 1, -1)
    b = np.where(np.cos(theta_b - (lam + math.pi)) > 0, 1, -1)
    return float((a * b).mean())


def rock_pairs(theta_a: float, theta_b: float, n: int, rng) -> np.ndarray:
    """n exploding-rock trials as an (n, 2) array of +/-1: fragment A flies
    along a uniform hidden angle lambda, fragment B along lambda + pi, and a
    station fires +1 when its fragment moves into its analyzer's half-plane."""
    lam = rng.uniform(0.0, 2.0 * math.pi, size=n)
    a = np.where(np.cos(theta_a - lam) > 0.0, 1, -1)
    b = np.where(np.cos(theta_b - (lam + math.pi)) > 0.0, 1, -1)
    return np.column_stack([a, b])


def rod_dice_pairs(anti: bool, n: int, rng) -> np.ndarray:
    """n rod-connected dice readouts: one fair coin per trial read by both
    stations, with B's sign flipped when ``anti``."""
    a = np.where(rng.random(n) < 0.5, 1, -1)
    return np.column_stack([a, -a if anti else a])


VESSELS_LITRES = 20.0
VESSELS_THRESHOLD_LITRES = 10.0


def vessels_pairs(siphon_a: bool, siphon_b: bool, n: int, rng) -> np.ndarray:
    """n connected-vessels trials.  A reference gauge reads +1; a lone siphon
    drains all 20 L and reads +1; two siphons split the water V_A = 20u,
    V_B = 20 - V_A and each reads +1 iff it holds strictly more than 10 L."""
    if not (siphon_a and siphon_b):
        return np.ones((n, 2), dtype=int)
    va = VESSELS_LITRES * rng.random(n)
    a = np.where(va > VESSELS_THRESHOLD_LITRES, 1, -1)
    b = np.where(VESSELS_LITRES - va > VESSELS_THRESHOLD_LITRES, 1, -1)
    return np.column_stack([a, b])


ROCK_ANGLES_A = (0.0, math.pi / 2)
ROCK_ANGLES_B = (math.pi / 4, -math.pi / 4)


def mechanism_pairs(model: str, i: int, j: int, n: int, rng) -> np.ndarray:
    """n trials of setting pair (i, j) of a macroscopic model at its default
    settings: "rock" (analyzer angles A (0, pi/2), B (pi/4, -pi/4)),
    "rod-dice" (opposite signs on the second-second pair) or "vessels"
    (setting 0 the reference gauge, setting 1 the siphon)."""
    if model == "rock":
        return rock_pairs(ROCK_ANGLES_A[i], ROCK_ANGLES_B[j], n, rng)
    if model == "rod-dice":
        return rod_dice_pairs(i == 1 and j == 1, n, rng)
    if model == "vessels":
        return vessels_pairs(i == 1, j == 1, n, rng)
    raise ValueError(f"unknown model {model!r}")


def lhv_chsh_from_table(a_responses: np.ndarray, b_responses: np.ndarray, weights: np.ndarray) -> float:
    """CHSH value of a finite shared-hidden-variable model.

    ``a_responses``/``b_responses`` are (2, n) arrays of +/-1 deterministic
    responses per setting and hidden value; ``weights`` is the hidden-value
    distribution.  Convention: minus on the (2,2) cell.
    """
    e = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            e[i, j] = float(np.sum(weights * a_responses[i] * b_responses[j]))
    return e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def horodecki_chsh_bound(psi: np.ndarray) -> float:
    """Largest |S| that +/-1 spin settings in any directions reach on the
    two-qubit state psi (Horodecki, Phys. Lett. A 200, 340, 1995):
    2*sqrt(t1^2 + t2^2), with t1 >= t2 the top two singular values of the
    correlation matrix T_kl = <psi| sigma_k (x) sigma_l |psi>."""
    t = np.array(
        [[np.vdot(psi, kron_loops(sk, sl) @ psi).real for sl in _PAULIS] for sk in _PAULIS]
    )
    t1, t2, _ = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(t1 * t1 + t2 * t2)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_projector_matrix(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    block = q[:, :rank]
    return block @ block.conj().T


def schmidt_coefficients_2x2(psi: np.ndarray) -> list[float]:
    """Singular values of the 2x2 amplitude matrix via the closed-form
    eigenvalues of M M^dagger."""
    m = psi.reshape(2, 2)
    gram = m @ m.conj().T
    values = [v for v, _ in eig2_hermitian(gram)]
    return sorted((math.sqrt(max(v, 0.0)) for v in values), reverse=True)


def dense_couple_projectors(projs_a, projs_b, tensor: bool) -> list[np.ndarray]:
    """Couple projectors in row-major (x, y) order: P_x (x) Q_y by
    ``np.kron`` when ``tensor``, else the product P_x Q_y of same-space
    projectors."""
    return [np.kron(p, q) if tensor else p @ q for p in projs_a for q in projs_b]


def dense_joint_table(projs_a, projs_b, psi: np.ndarray, tensor: bool) -> np.ndarray:
    """Joint Born table from dense couple projectors (see
    ``dense_couple_projectors``) applied to psi by matmul, then the squared
    norm."""
    projected = [c @ psi for c in dense_couple_projectors(projs_a, projs_b, tensor)]
    values = [float(np.vdot(v, v).real) for v in projected]
    return np.array(values).reshape(len(projs_a), len(projs_b))


def dense_marginals(projs_a, projs_b, psi: np.ndarray, tensor: bool) -> tuple[list[float], list[float]]:
    """Per-side Born probabilities from the lifted projectors P_x (x) 1 and
    1 (x) Q_y (``tensor``) or from the same-space projectors themselves."""
    if tensor:
        eye_a = np.eye(projs_a[0].shape[0])
        eye_b = np.eye(projs_b[0].shape[0])
        projs_a = [np.kron(p, eye_b) for p in projs_a]
        projs_b = [np.kron(eye_a, q) for q in projs_b]
    return (
        [float(np.linalg.norm(p @ psi) ** 2) for p in projs_a],
        [float(np.linalg.norm(q @ psi) ** 2) for q in projs_b],
    )


def projector_family_residuals(projs) -> dict[str, float]:
    """Max-entry residuals of a family of dense projector matrices, by direct
    matmul: P^H = P and P P = P of every member, P_i P_j = 0 of every pair
    i < j, and sum_k P_k = 1."""
    dim = projs[0].shape[0]
    pairs = [(p, q) for i, p in enumerate(projs) for q in projs[i + 1:]]
    return {
        "hermiticity": max(float(np.abs(p - p.conj().T).max()) for p in projs),
        "idempotency": max(float(np.abs(p @ p - p).max()) for p in projs),
        "orthogonality": max((float(np.abs(p @ q).max()) for p, q in pairs), default=0.0),
        "completeness": float(np.abs(sum(projs) - np.eye(dim)).max()),
    }
