"""Circuit evaluation and differentiation over gate lists.

Three gradient routes with different trade-offs:

* parameter-shift: exact for RY-parameterized circuits, two shifted
  evaluations per angle on explicit +/- rows: the noiseless, independent
  reference;
* adjoint reverse accumulation: one backward sweep over a unitary gate list
  (Jones & Gacon 2020, arXiv:2009.02823): a sampled trajectory, or B of them
  merged into one list whose Pauli records are tagged with their row;
* central finite differences: O(h^2) oracle used for cross-checking.

States are real (rows, 2^Q) arrays from |0...0>, run in row chunks that
bound peak memory (``_row_chunks``): every gate is real up to a global
phase, and on real arrays Y is applied as XZ = -iY. ``run_gates`` and the
per-gate adjoint sweep run a chunk amplitude-major, as (2^Q, rows), and
states are measured rows first. A single circuit value runs one row in
``trajectory_expectation``, which ``evaluate_expectation`` calls without
noise; the two references run their 2P +/- rows plainly.

Two engines fuse gates (as statevector simulators such as Qulacs do;
Suzuki et al. 2021, Quantum 5, 559): each run of consecutive gates within a
window of at most four qubits becomes one matrix. Both take their blocks
from one builder, ``_block_matrices``: for each windowed block of a cut, M
and, per rotation j, D_j = M_{>j} (-iY_j) M_{<=j}, one stack per angle row,
with the blocks of one gate pattern built as one stack. As RY(t + pi) =
-iY RY(t), D_j is the block with rotation j turned by pi, and 2 dM/dtheta_j.

* ``_batch_expectations``, the head's finite-shot engine, runs each row's
  state psi and its states turned by pi, psi_j = 2 dpsi/dtheta_j, which
  give E(theta_j + pi) = psi_j^T Z psi_j and c_j = psi^T Z psi_j.
* ``block_adjoint_gradients`` sweeps the encoders, whose rows share their
  angles: one matmul per block un-applies M from psi and lam, and one Gram
  matrix of the two, summed over the rows, gives the block's derivatives
  through its D_j.
"""
from __future__ import annotations

import math

import numpy as np

from . import noise as noise_mod
from .ansatz import CNOT, DATA, PAULI, RY, GateList, parameter_slot_count
from .errors import ConfigurationError
from .simcore import (
    MAX_QUBITS,
    _cnot,
    _pauli,
    _qubit_view,
    _ry,
    _z_expectation,
)

# cap on amplitudes held at once during batched evaluation (32 MB of float64)
_CHUNK_ELEMENTS = 1 << 22
# widest qubit window of a fused block (16 x 16 matrices)
_BLOCK_QUBITS = 4


def _apply_gate(amps: np.ndarray, n: int, g: tuple, params, latent, rows: int = 0) -> None:
    """Apply one gate record in place; angles broadcast row-wise, and a
    record tagged with row b of ``rows`` acts on the columns b, b + rows, ..."""
    kind = g[0]
    if kind == RY:
        _ry(amps, n, g[1], params[..., g[2]])
    elif kind == CNOT:
        _cnot(amps, n, g[1], g[2])
    elif kind == DATA:
        _ry(amps, n, g[1], latent[..., g[2]])
    elif kind == PAULI:  # a record tagged with a row acts on that row only
        if len(g) > 3:
            amps = amps.reshape(*amps.shape[:-1], -1, max(rows, 1))[..., _tagged_row(g, rows)]
        _pauli(amps, n, g[1], g[2])
    else:
        raise ConfigurationError(f"unknown gate record {g!r}")


def _tagged_row(g: tuple, rows: int) -> int:
    """The row that a tagged Pauli record acts on, one of the ``rows`` there are."""
    if not (isinstance(g[3], (int, np.integer)) and 0 <= g[3] < rows):
        raise ConfigurationError(f"{g!r} is tagged with row {g[3]!r}, not one of {rows} rows")
    return g[3]


def run_gates(amps: np.ndarray, circuit: GateList, params=None, latent=None) -> np.ndarray:
    """Execute a gate list in place on one row (2^Q,) or B rows (B, 2^Q).

    ``params`` (B, P) and ``latent`` (B, K) give each row its own angles;
    1-D ones are shared. B rows run amplitude-major on a (2^Q, B) copy, and
    each amplitude takes the same operations as in its row run alone.
    """
    flat, rows = (amps, 0) if amps.ndim == 1 else (amps.T.copy().reshape(-1), len(amps))
    for g in circuit.gates:
        _apply_gate(flat, circuit.num_qubits, g, params, latent, rows)
    if rows:
        amps[...] = flat.reshape(-1, rows).T
    return amps


def _check_records(circuit: GateList) -> None:
    """Reject a qubit or RY slot that is not an integer, a record on a qubit
    outside the register, or a CNOT onto its own control."""
    n = circuit.num_qubits
    for g in circuit.gates:
        fields = g[1:3] if g[0] in (CNOT, RY) else g[1:2]
        if not all(isinstance(f, (int, np.integer)) for f in fields):
            raise ConfigurationError(f"{g!r} has a qubit or slot that is not an integer")
        for q in g[1:3] if g[0] == CNOT else g[1:2]:
            if not 0 <= q < n:
                raise ConfigurationError(f"qubit {q} of {g!r} is outside the {n}-qubit register")
        if g[0] == CNOT and g[1] == g[2]:
            raise ConfigurationError(f"{g!r} has its control as its target")


def _prepare(circuit: GateList, params, latent, measured: int | None = None):
    """Validate shapes, records and ``measured``; return float ``params`` and ``latent``.

    The circuit fixes its encoding passes: each DATA index must be an integer in
    [0, ``latent.size``), and values past the last one read are allowed.
    """
    if not 1 <= circuit.num_qubits <= MAX_QUBITS:
        raise ConfigurationError(
            f"register width must be in [1, {MAX_QUBITS}] for simulation, "
            f"got {circuit.num_qubits}"
        )
    if measured is not None and not 0 <= measured < circuit.num_qubits:
        raise ConfigurationError(
            f"measured qubit {measured} out of range for {circuit.num_qubits} qubits"
        )
    params = np.asarray(params if params is not None else [], dtype=np.float64)
    if params.ndim != 1:
        raise ConfigurationError(f"params must be a 1-D vector, got shape {params.shape}")
    if latent is not None:
        latent = np.asarray(latent, dtype=np.float64)
        if latent.ndim != 1:
            raise ConfigurationError(f"latent must be a 1-D vector, got shape {latent.shape}")
    _check_records(circuit)
    n_slots = parameter_slot_count(circuit)
    if params.size != n_slots:
        raise ConfigurationError(
            f"circuit has {n_slots} parameter slots but got {params.size} parameters"
        )
    data_idx = [g[2] for g in circuit.gates if g[0] == DATA]
    if data_idx and latent is None:
        raise ConfigurationError("circuit reads latent values but no latent vector given")
    for k in data_idx:
        if not (isinstance(k, (int, np.integer)) and 0 <= k < latent.size):
            raise ConfigurationError(f"latent index {k!r} out of range for length {latent.size}")
    return params, latent


def _row_chunks(rows: int, num_qubits: int) -> list[slice]:
    """Slices of ``rows`` holding at most ``_CHUNK_ELEMENTS`` amplitudes each.

    Batched passes run chunk by chunk, so that evaluating many rows holds a
    bounded amount of state. Rows are independent, so the chunking changes
    no value. While ``run_gates`` runs, its amplitude-major copy doubles a
    chunk's amplitudes.
    """
    step = max(1, _CHUNK_ELEMENTS >> num_qubits)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _blocks(circuit: GateList) -> tuple[int, list[tuple]]:
    """Cut the gate list into fused blocks: runs of consecutive gates on few qubits.

    Returns the window width k = min(``_BLOCK_QUBITS``, Q // 2 + 1) and the
    blocks. The cap keeps a block's 4^k matrix entries within 4 times a
    row's 2^Q amplitudes: a window as wide as a small register would build
    a full unitary for every row that starts in it.
    A block is (end, lo, gates): the gates up to index ``end`` act within
    the window of k qubits from ``lo``, and are renumbered to it. A gate
    that fits no window (a CNOT spanning more than k qubits, such as the
    ring's wrap-around) is a block of its own, with ``lo`` None and the gate
    as it is.
    """
    k = min(_BLOCK_QUBITS, circuit.num_qubits // 2 + 1)
    runs: list[list] = []  # [first gate, end, lowest qubit, highest qubit]
    for i, g in enumerate(circuit.gates):
        qubits = g[1:] if g[0] == CNOT else g[1:2]
        a, b = min(qubits), max(qubits)
        if runs and max(b, runs[-1][3]) - min(a, runs[-1][2]) < k:
            runs[-1][1:] = i + 1, min(a, runs[-1][2]), max(b, runs[-1][3])
        else:
            runs.append([i, i + 1, a, b])
    blocks = []
    for first, end, a, b in runs:
        gates = circuit.gates[first:end]
        if b - a >= k:
            blocks.append((end, None, gates))
            continue
        lo = max(0, b - k + 1)
        blocks.append((end, lo, [(g[0], g[1] - lo, g[2] - lo) if g[0] == CNOT
                                 else (g[0], g[1] - lo, *g[2:]) for g in gates]))
    return k, blocks


def _block_matrices(k: int, cut, angles) -> list:
    """Every windowed block of ``cut``: block i's matrices (S_i, 1 + J_i, 2^k, 2^k).

    ``cut`` lists blocks as ``_blocks`` cuts them, and block i takes one
    stack per row of its angle rows ``angles[i]`` (S_i, J_i): its j-th
    rotation (RY or DATA record) turns by ``angles[i][:, j]``. A block that
    fits no window gets None. Each stack holds M^T, then each D_j^T (row a
    of a matrix is its image of basis state a). The blocks of one gate
    pattern, their rotations' slots aside, are built as one stack that
    shares each gate's one kernel call; every build is elementwise, so a
    block has the same bits as when built alone.
    """
    patterns: dict[tuple, list[int]] = {}
    for i, (_, lo, gates) in enumerate(cut):
        if lo is not None:
            key = tuple(g[:2] if g[0] in (RY, DATA) else g for g in gates)
            patterns.setdefault(key, []).append(i)
    built = [None] * len(cut)
    for members in patterns.values():
        stack = np.concatenate([angles[i] for i in members])
        mats = np.empty((len(stack), 1 + stack.shape[1], 1 << k, 1 << k))
        mats[:, 0] = np.eye(1 << k)
        started = 1
        for g in cut[members[0]][2]:
            if g[0] in (RY, DATA):
                _ry(mats[:, :started], k, g[1], stack[:, started - 1, None, None])
                mats[:, started] = _pauli(mats[:, 0].copy(), k, g[1], "Y")  # -iY on real rows
                started += 1
            else:
                _apply_gate(mats[:, :started], k, g, None, None)
        top = 0
        for i in members:
            built[i], top = mats[top : top + len(angles[i])], top + len(angles[i])
    return built


def _batch_expectations(circuit, params, latent=None) -> tuple[np.ndarray, np.ndarray]:
    """E(theta_j + pi) and c_j = dE/dtheta_j of <Z_0> from |0...0>, per column j of each row.

    ``circuit`` holds RY records reading ``params`` (P,), shared by every
    row, DATA records reading each row's ``latent`` (B, K) (None: one row,
    K = 0), and Pauli records, untagged or tagged with their row. Column
    j < P is params[j] and P + i is latent[:, i]; each must be read by
    exactly one rotation. Returns the values and c, each (B, P + K). The
    blocks are cut once; one that reads DATA angles is built as a stack of
    B, and a row's tagged records rebuild the blocks they fall in, or act
    after a block whose window they lie outside (and so commute with). The
    state turned at rotation j starts as D_j applied to the unturned state
    at its block's input, and takes M of every later block.
    """
    n = circuit.num_qubits
    latent = np.zeros((1, 0)) if latent is None else latent
    rows, p = len(latent), params.size
    shared, tagged = [], []  # tagged: (row, index of the shared gate after it, record)
    for g in circuit.gates:
        if g[0] == PAULI and len(g) > 3:
            tagged.append((_tagged_row(g, rows), len(shared), g))
        else:
            shared.append(g)
    turns = [(i, g[2] + p * (g[0] == DATA)) for i, g in enumerate(shared) if g[0] in (RY, DATA)]
    starts, cols = np.array(turns, dtype=np.intp).reshape(-1, 2).T
    reads = np.bincount(cols, minlength=p + latent.shape[1])
    if np.any(reads != 1):
        col = int(np.flatnonzero(reads != 1)[0])
        raise ConfigurationError(f"column {col} is read by {reads[col]} RY gates, not one")
    k, blocks = _blocks(GateList(n, shared))
    ends = [end for end, _, _ in blocks]
    # block i holds rotations bounds[i]:bounds[i + 1]; a stack of 1 serves every row
    bounds = np.searchsorted(starts, [0] + ends)
    ext = np.concatenate([np.broadcast_to(params, (rows, p)), latent], axis=1)
    built = _block_matrices(k, blocks, [
        ext[: rows if any(g[0] == DATA for g in gates) else 1, cols[a:b]]
        for (_, _, gates), a, b in zip(blocks, bounds, bounds[1:])])
    own, after = {}, {}  # (row, block): the row's gates of the block, or its records after it
    for row, at, g in tagged:
        i = int(np.searchsorted(ends, max(at - 1, 0), side="right"))
        _, lo, gates = blocks[i]
        if lo is not None and lo <= g[1] < lo + k:
            mine = own.setdefault((row, i), list(gates))
            at += len(mine) - len(gates) - (ends[i - 1] if i else 0)  # after its earlier records
            mine.insert(at, (PAULI, g[1] - lo, g[2]))
        else:
            after.setdefault((row, i), []).append(g[:3])
    own = {(row, i): _block_matrices(k, [(0, 0, gates)],
                                     [ext[row : row + 1, cols[bounds[i] : bounds[i + 1]]]])[0]
           for (row, i), gates in own.items()}
    z_0 = _z_diagonal(np.eye(n)[0], n)
    values, slopes = np.empty((2, rows, cols.size))
    for row in range(rows):
        for part in _row_chunks(cols.size, n):
            # row 0 is the unturned state, row 1 + r the state turned at rotation part.start + r
            amps = np.empty((1 + len(starts[part]), 1 << n))
            amps[0] = np.eye(1, 1 << n)
            spare = np.empty_like(amps)
            started = 1 + np.searchsorted(starts[part], ends)
            active = 1
            for i, (_, lo, gates) in enumerate(blocks):
                if lo is None:
                    _apply_gate(amps[:active], n, gates[0], None, None)
                else:
                    # views with the window's axis last, each 2^k row multiplied by U^T
                    hi, m = started[i], n - lo - k
                    if m:
                        shape = (hi, 1 << lo, 1 << k, 1 << m)
                        x, y = (a[:hi].reshape(shape).swapaxes(2, 3) for a in (amps, spare))
                    else:  # a window at the low end: one contiguous (2^lo, 2^k) block per row
                        x, y = (a[:hi].reshape(hi, 1, 1 << lo, 1 << k) for a in (amps, spare))
                    mats = own[row, i][0] if (row, i) in own else built[i][row % len(built[i])]
                    np.matmul(x[:active], mats[0], out=y[:active])
                    turned = slice(part.start + active - bounds[i], part.start + hi - bounds[i])
                    np.matmul(x[0], mats[turned, None], out=y[active:])
                    amps, spare, active = spare, amps, hi
                for g in after.get((row, i), ()):
                    _apply_gate(amps[:active], n, g, None, None)
            values[row, cols[part]] = _z_expectation(amps[1:], n, 0)
            # summed along each row, so that the bits do not depend on the chunk's row count
            slopes[row, cols[part]] = (amps[1:] * (z_0 * amps[0])).sum(axis=1)
    return values, slopes


def _shift_rows(base: np.ndarray, delta: float) -> np.ndarray:
    """(1 + 2P, P) rows: ``base``, then +delta on each column, then -delta on each."""
    p = base.size
    rows = np.tile(base, (1 + 2 * p, 1))
    cols = np.arange(p)
    rows[1 + cols, cols] += delta
    rows[1 + p + cols, cols] -= delta
    return rows


def _paired_shift_values(circuit, params, latent, measured, delta):
    """E(theta_j + delta), E(theta_j - delta) for every parameter j.

    The 2P shifted rows run plainly: each row chunk is one ``run_gates`` call
    on real rows from |0...0>, every row with its own angles.
    """
    rows = _shift_rows(params, delta)[1:]
    n = circuit.num_qubits
    vals = np.empty(len(rows))
    for part in _row_chunks(len(rows), n):
        amps = np.zeros((len(rows[part]), 1 << n))
        amps[:, 0] = 1.0
        vals[part] = _z_expectation(run_gates(amps, circuit, rows[part], latent), n, measured)
    return vals[: params.size], vals[params.size :]


def evaluate_expectation(circuit: GateList, params, latent=None, measured: int = 0) -> float:
    """Noiseless, infinite-shot <Z> on ``measured`` after running from |0...0>."""
    return trajectory_expectation(circuit, params, latent, measured=measured)


def trajectory_expectation(circuit: GateList, params, latent=None, noise=None,
                           rng: np.random.Generator | None = None, measured: int = 0) -> float:
    """<Z> of one row run from |0...0>: one sampled trajectory under ``noise``, else noiseless."""
    params, latent = _prepare(circuit, params, latent, measured)
    if noise is not None:
        circuit = noise_mod.sample_pauli_insertions(circuit, noise, rng)
    amps = run_gates(np.eye(1, 1 << circuit.num_qubits)[0], circuit, params, latent)
    return float(_z_expectation(amps, circuit.num_qubits, measured))


def parameter_shift_gradient(circuit: GateList, params, latent=None,
                             measured: int = 0) -> np.ndarray:
    """Noiseless d<Z>/d(params) via [E(theta + pi/2) - E(theta - pi/2)] / 2 per angle."""
    params, latent = _prepare(circuit, params, latent, measured)
    plus, minus = _paired_shift_values(circuit, params, latent, measured, math.pi / 2)
    return (plus - minus) / 2.0


def finite_difference_oracle(circuit: GateList, params, latent=None, measured: int = 0,
                             h: float = 1e-4) -> np.ndarray:
    """Central differences [E(theta+h) - E(theta-h)] / (2h), noiseless."""
    if h <= 0:
        raise ConfigurationError(f"step size must be positive, got {h}")
    params, latent = _prepare(circuit, params, latent, measured)
    plus, minus = _paired_shift_values(circuit, params, latent, measured, h)
    return (plus - minus) / (2.0 * h)


def _z_diagonal(z_weights: np.ndarray, n: int) -> np.ndarray:
    """Diagonal of sum_j w_j Z_j for each row of weights, shape (..., 2^n).

    Summed in order of j, as a matmul may round a row by how many come with it.
    """
    signs = 1.0 - 2.0 * ((np.arange(1 << n) >> np.arange(n - 1, -1, -1)[:, None]) & 1)
    return sum(z_weights[..., j, None] * signs[j] for j in range(n))


def _first_row(values):
    return values[0] if values is not None and values.ndim == 2 else values


def adjoint_observable_gradients(circuit: GateList, params, latent, z_weights, final):
    """One reverse sweep for E = <psi| O |psi> with O = sum_j w_j Z_j, from ``final``.

    ``final`` holds the states the circuit ends in, as the caller ran them;
    the sweep copies them and does not run the circuit. The gate list must
    be unitary: a noiseless circuit, one sampled trajectory with its Pauli
    records, or B trajectories merged with row-tagged records. Any of
    ``params`` (B, P), ``latent`` (B, L) or None, ``z_weights`` (B, Q) and
    ``final`` (B, 2^Q) may carry a leading axis of B rows; a 1-D value is
    shared by every row. Returns the per-row gradients wrt params (B, P) and
    latent (B, L), with B = 1 when no argument has a row axis. Real final
    states keep every state real. A row's gradients have the same bits
    alone, as a 1-D final, or in a chunk of any size.
    """
    params = np.asarray(params, dtype=np.float64)
    latent = None if latent is None else np.asarray(latent, dtype=np.float64)
    n = circuit.num_qubits
    _prepare(circuit, _first_row(params), _first_row(latent))
    z_weights = np.asarray(z_weights, dtype=np.float64)
    if z_weights.ndim not in (1, 2) or z_weights.shape[-1] != n:
        raise ConfigurationError(
            f"z_weights must have shape ({n},) or (rows, {n}), got {z_weights.shape}"
        )
    named = {"params": params, "latent": latent, "z_weights": z_weights, "final": final}
    row_counts = {k: a.shape[0] for k, a in named.items() if a is not None and a.ndim == 2}
    if len(set(row_counts.values())) > 1:
        raise ConfigurationError(f"row axes disagree in length: {row_counts}")
    rows = max(row_counts.values(), default=1)
    dim = 1 << n
    if final.shape not in ((dim,), (rows, dim)):
        raise ConfigurationError(f"final must have shape ({dim},) or ({rows}, {dim}), "
                                 f"got {final.shape}")
    # psi and lam share one (2, 2^Q * rows) array, each amplitude-major, so
    # that one kernel call un-applies a gate from both
    psi = np.broadcast_to(final, (rows, dim))
    both = np.stack([psi.T, (_z_diagonal(z_weights, n) * psi).T]).reshape(2, -1)
    terms = np.empty((rows, dim >> 1), dtype=both.dtype)  # row-major, summed by one rule

    grad_params = np.zeros((rows, params.shape[-1]))
    grad_latent = np.zeros((rows, latent.shape[-1] if latent is not None else 0))
    for g in reversed(circuit.gates):
        if g[0] not in (RY, DATA):
            # CNOT and Paulis undo themselves; on real rows Y is XZ, whose
            # square is -1, and that sign reaches psi and lam alike
            _apply_gate(both, n, g, params, latent, rows)
            continue
        # dRY(t)/dt = (-iY/2) RY(t) with -iY real, so the derivative term is
        # <lam|(-iY)|psi> on the state after the gate (the 1/2 cancels the 2
        # of 2 Re<.>); only then is the gate un-applied from both states
        pv, lv = _qubit_view(both, n, g[1])
        prod = lv[:, 1].conj() * pv[:, 0]
        prod -= lv[:, 0].conj() * pv[:, 1]
        terms[...] = prod.reshape(-1, rows).T
        contrib = terms.sum(axis=1).real
        if g[0] == RY:
            grad_params[:, g[2]] += contrib
            angle = params[..., g[2]]
        else:
            grad_latent[:, g[2]] += contrib
            angle = latent[..., g[2]]
        _ry(both, n, g[1], -angle)
    return grad_params, grad_latent


def block_adjoint_gradients(circuit: GateList, blocks, params, z_weights, final) -> np.ndarray:
    """The adjoint sweep per fused block, for angles ``params`` (P,) that every row shares.

    Returns the row-summed gradient (P,) of sum_b <psi_b| sum_j w_bj Z_j |psi_b>
    from the rows' real final states ``final`` (B, 2^Q), left as they are,
    with ``z_weights`` (B, Q) and ``blocks = _blocks(circuit)``. One matmul
    un-applies a block's matrix M from psi and lam. Its RY gate j adds
    sum_ab D_j[a, b] C[a, b], with D_j from ``_block_matrices`` and C =
    sum lam_out psi_in^T over the rows and the qubits outside the window.
    """
    n, (k, cut) = circuit.num_qubits, blocks
    dim = 1 << k
    slots = [[g[2] for g in gates if g[0] == RY] for _, _, gates in cut]
    at = np.cumsum([0] + [len(s) for s in slots]).tolist()  # block i reads at[i]:at[i + 1]
    angles = params[[j for s in slots for j in s]]  # one gather for every block
    built = _block_matrices(k, cut, [angles[None, a:b] for a, b in zip(at, at[1:])])
    both = np.stack([final, _z_diagonal(np.asarray(z_weights, dtype=np.float64), n) * final])
    grad = np.zeros(len(params))
    for i, (_, lo, gates) in reversed(list(enumerate(cut))):
        if lo is None:  # a CNOT wider than the window undoes itself
            _apply_gate(both, n, gates[0], None, None)
            continue
        mats = built[i][0]  # M^T, then each D_j^T
        # psi_in = M^T psi_out, and lam likewise, on views with the window's
        # axis second last; a window at the low end is one matmul over rows
        m = n - lo - k
        out = both.reshape(2, -1, dim, 1 << m)
        into = np.matmul(mats[0], out) if m else (out[..., 0] @ mats[0].T)[..., None]
        gram = np.tensordot(into[0], out[1], axes=([0, 2], [0, 2]))  # C^T
        np.add.at(grad, slots[i], mats[1:].reshape(len(slots[i]), dim * dim) @ gram.ravel())
        both = into.reshape(both.shape)
    return grad


def adjoint_gradient(circuit: GateList, params, latent=None, measured: int = 0) -> np.ndarray:
    """Adjoint-mode d<Z>/d(params); matches the shift rule on noiseless circuits."""
    params, latent = _prepare(circuit, params, latent, measured)
    n = circuit.num_qubits
    final = run_gates(np.eye(1, 1 << n), circuit, params, latent)  # one row from |0...0>
    return adjoint_observable_gradients(circuit, params, latent, np.eye(n)[measured], final)[0][0]

