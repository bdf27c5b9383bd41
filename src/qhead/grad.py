"""Circuit evaluation and differentiation over gate lists.

Three gradient routes with different trade-offs:

* parameter-shift: exact for RY-parameterized circuits, two shifted
  evaluations per angle on explicit +/- rows: the noiseless, independent
  reference (noisy gradients come from ``qhead.head``'s one-sweep route);
* adjoint reverse accumulation: one backward sweep over a unitary gate list
  (Jones & Gacon 2020, arXiv:2009.02823); a sampled trajectory is one, as
  its Pauli records are un-applied like any other gate, and so are B
  trajectories merged into one list whose Pauli records are tagged with
  their row;
* central finite differences: O(h^2) oracle used for cross-checking.

Shifted evaluations run on real (rows, 2^Q) amplitude arrays from |0...0>,
in row chunks that bound peak memory (``_row_chunks``), and read one
qubit's <Z>. The two references run their 2P +/- rows plainly: one
``run_gates`` call per chunk, every row with its own angles. The head's
finite-shot noisy gradient takes E(params + pi e_j) for every column j
from ``_batch_expectations``, read on qubit 0 of a circuit that reads each
column at exactly one RY gate. That engine fuses gates (as statevector
simulators such as Qulacs do; Suzuki et al. 2021, Quantum 5, 559): each run
of consecutive gates within a window of at most four qubits becomes one
matrix, applied to the rows as one matmul. ``_block_matrices`` builds a block's matrix M and,
per RY gate j, D_j = M_{>j} (-iY_j) M_{<=j}, all at the shared angles.
Since RY(t + pi) = -iY RY(t), D_j is the block with gate j turned by pi: the
row turned at gate j starts as D_j applied to the unturned row's state at
its block's input. The states stay real, because every gate is real up to a
global phase: on real arrays Y is applied as XZ = -iY, and the dropped phase
never reaches |amplitude|^2.

Single circuit values (``evaluate_expectation`` and
``trajectory_expectation``) run one real row through ``_single_value``.

The adjoint sweep starts from the final states its caller ran: a
(B, 2^Q) batch of real rows, each with its own latent and observable
weights. It takes each RY derivative as the real overlap
<lambda|(-iY)|psi> before un-applying the gate. Where every row shares the
angles (the encoders), ``block_adjoint_gradients`` sweeps by fused blocks
instead, from the same builder: one matmul per block un-applies M from psi
and lam, and one Gram matrix of the two, summed over the rows, gives the
block's derivatives through its D_j.
"""
from __future__ import annotations

import math

import numpy as np

from . import noise as noise_mod
from .ansatz import CNOT, DATA, ENCODE, PAULI, RY, GateList, expand_encoding, parameter_slot_count
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


def _apply_gate(amps: np.ndarray, n: int, g: tuple, params, latent) -> None:
    """Apply one expanded gate record in place; angles broadcast row-wise."""
    kind = g[0]
    if kind == RY:
        _ry(amps, n, g[1], params[..., g[2]])
    elif kind == CNOT:
        _cnot(amps, n, g[1], g[2])
    elif kind == DATA:
        _ry(amps, n, g[1], latent[..., g[2]])
    elif kind == PAULI:  # a record tagged with a row acts on that row only
        _pauli(amps if len(g) == 3 else amps[..., g[3], :], n, g[1], g[2])
    elif kind == ENCODE:
        raise ConfigurationError("encoding steps must be expanded before execution")
    else:
        raise ConfigurationError(f"unknown gate record {g!r}")


def run_gates(amps: np.ndarray, circuit: GateList, params=None, latent=None) -> np.ndarray:
    """Execute an expanded gate list in place on ``amps`` (last axis = state).

    ``params`` and ``latent`` may carry leading batch axes matching ``amps``;
    angles broadcast row-wise.
    """
    for g in circuit.gates:
        _apply_gate(amps, circuit.num_qubits, g, params, latent)
    return amps


def _check_records(circuit: GateList) -> None:
    """Reject a record on a qubit outside the register, or a CNOT onto its own control."""
    n = circuit.num_qubits
    for g in circuit.gates:
        for q in g[1:3] if g[0] == CNOT else g[1:2] if g[0] != ENCODE else ():
            if not 0 <= q < n:
                raise ConfigurationError(f"qubit {q} of {g!r} is outside the {n}-qubit register")
        if g[0] == CNOT and g[1] == g[2]:
            raise ConfigurationError(f"{g!r} has its control as its target")


def _prepare(circuit: GateList, params, latent, measured: int | None = None):
    """Validate shapes, records and ``measured``; expand encoding steps against ``latent``."""
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
    q = circuit.num_qubits
    if any(g[0] == ENCODE for g in circuit.gates):
        if latent is None:
            raise ConfigurationError("circuit has encoding steps but no latent vector given")
        if latent.size == 0 or latent.size % q:
            raise ConfigurationError(
                f"latent length {latent.size} is not a multiple of the register width {q}"
            )
        circuit = expand_encoding(circuit, latent.size // q)
    _check_records(circuit)
    n_slots = parameter_slot_count(circuit)
    if params.size != n_slots:
        raise ConfigurationError(
            f"circuit has {n_slots} parameter slots but got {params.size} parameters"
        )
    data_idx = [g[2] for g in circuit.gates if g[0] == DATA]
    if data_idx:
        if latent is None:
            raise ConfigurationError("circuit reads latent values but no latent vector given")
        if max(data_idx) >= latent.size:
            raise ConfigurationError(
                f"latent index {max(data_idx)} out of range for length {latent.size}"
            )
    return circuit, params, latent


def lift_data_slots(circuit: GateList) -> tuple[GateList, np.ndarray]:
    """Rewrite data records as fresh parameter slots appended after the real ones.

    Returns the rewritten list and, per new slot, the latent index it reads.
    Callers evaluate with ``concat(params, latent[occurrences])``; this is what
    lets the shift rule act on each encoding-gate occurrence individually.
    """
    base = parameter_slot_count(circuit)
    gates: list[tuple] = []
    occurrences: list[int] = []
    for g in circuit.gates:
        if g[0] == DATA:
            gates.append((RY, g[1], base + len(occurrences)))
            occurrences.append(g[2])
        else:
            gates.append(g)
    return GateList(circuit.num_qubits, gates), np.asarray(occurrences, dtype=np.intp)


def _row_chunks(rows: int, num_qubits: int) -> list[slice]:
    """Slices of ``rows`` holding at most ``_CHUNK_ELEMENTS`` amplitudes each.

    Batched passes run chunk by chunk, so that evaluating many rows holds a
    bounded amount of state. Rows are independent, so the chunking changes
    no value.
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


def _block_matrices(k: int, gates, params) -> tuple[np.ndarray, list]:
    """A fused block's matrices at the angles every row shares, and its RY gates' slots.

    ``mats`` (1 + J, 2^k, 2^k), for J RY gates, holds M^T, then each D_j^T:
    row a of a matrix is its image of basis state a. The real
    D_j = M_{>j} (-iY_j) M_{<=j} is the sweep's derivative block of RY gate
    j and, as RY(t + pi) = -iY RY(t), the block with that gate turned by pi.
    """
    slots = [g[2] for g in gates if g[0] == RY]
    mats = np.empty((1 + len(slots), 1 << k, 1 << k))
    mats[0] = np.eye(1 << k)
    started = 1
    for g in gates:
        _apply_gate(mats[:started], k, g, params, None)
        if g[0] == RY:
            mats[started] = _pauli(mats[0].copy(), k, g[1], "Y")  # -iY on real rows
            started += 1
    return mats, slots


def _batch_expectations(circuit, params) -> np.ndarray:
    """<Z_0> at ``params`` + pi e_j from |0...0>, for each column j of params (P,).

    Every column is read by exactly one RY gate, or ``ConfigurationError`` is
    raised; the turned rows are then the RY gates in gate order. The
    unturned row runs the gates in ``_blocks``, each block as its matrix M at
    the shared angles; the row turned at an RY gate starts in that gate's
    block, as D_j (``_block_matrices``) applied to the unturned row's state
    at the block's input, and then takes M of every later block. The states
    are real (``_pauli`` drops Y's global phase on real arrays). Rows run in
    ``_row_chunks``, each chunk led by the unturned row.
    """
    n = circuit.num_qubits
    slots = np.array([g[2] for g in circuit.gates if g[0] == RY], dtype=np.intp)
    reads = np.bincount(slots, minlength=params.size)
    if np.any(reads != 1):
        col = int(np.flatnonzero(reads != 1)[0])
        raise ConfigurationError(f"column {col} is read by {reads[col]} RY gates, not one")
    starts = np.flatnonzero([g[0] == RY for g in circuit.gates])
    k, blocks = _blocks(circuit)
    ends = [end for end, _, _ in blocks]
    built = [None if lo is None else _block_matrices(k, gates, params)[0]
             for _, lo, gates in blocks]
    # the rows turned in a block follow its RY gates' D_j
    firsts = np.searchsorted(starts, [0] + ends[:-1])
    out = np.empty(params.size)
    for part in _row_chunks(params.size, n):
        # row 0 is the unturned row, row 1 + r the row turned at RY gate part.start + r
        amps = np.empty((1 + len(starts[part]), 1 << n))
        amps[0] = 0.0
        amps[0, 0] = 1.0
        spare = np.empty_like(amps)
        started = 1 + np.searchsorted(starts[part], ends)
        active = 1
        for (_, lo, gates), mats, first, hi in zip(blocks, built, firsts, started):
            if lo is None:
                _apply_gate(amps[:active], n, gates[0], None, None)
                continue
            # views with the window's axis last, whose rows of 2^k amplitudes
            # are each multiplied by U^T (row j of a matrix is U e_j)
            m = n - lo - k
            if m:
                shape = (hi, 1 << lo, 1 << k, 1 << m)
                x, y = (a[:hi].reshape(shape).swapaxes(2, 3) for a in (amps, spare))
            else:  # a window at the low end: one contiguous (2^lo, 2^k) block per row
                x, y = (a[:hi].reshape(hi, 1, 1 << lo, 1 << k) for a in (amps, spare))
            np.matmul(x[:active], mats[0], out=y[:active])
            turned = slice(part.start + active - first, part.start + hi - first)
            np.matmul(x[0], mats[turned, None], out=y[active:])
            amps, spare = spare, amps
            active = hi
        out[slots[part]] = _z_expectation(amps[1:], n, 0)
    return out


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


def _single_value(circuit: GateList, params, latent, measured: int) -> float:
    """<Z_measured> of one row run from real |0...0>."""
    amps = np.zeros(1 << circuit.num_qubits)
    amps[0] = 1.0
    run_gates(amps, circuit, params, latent)
    return float(_z_expectation(amps, circuit.num_qubits, measured))


def evaluate_expectation(circuit: GateList, params, latent=None, measured: int = 0) -> float:
    """Noiseless, infinite-shot <Z> on ``measured`` after running from |0...0>."""
    circuit, params, latent = _prepare(circuit, params, latent, measured)
    return _single_value(circuit, params, latent, measured)


def trajectory_expectation(circuit: GateList, params, latent=None, noise=None,
                           rng: np.random.Generator | None = None, measured: int = 0) -> float:
    """<Z> for one sampled Pauli-insertion trajectory (still infinite shots)."""
    circuit, params, latent = _prepare(circuit, params, latent, measured)
    if noise is not None:
        circuit = noise_mod.sample_pauli_insertions(circuit, noise, rng)
    return _single_value(circuit, params, latent, measured)


def parameter_shift_gradient(circuit: GateList, params, latent=None,
                             measured: int = 0) -> np.ndarray:
    """Noiseless d<Z>/d(params) via [E(theta + pi/2) - E(theta - pi/2)] / 2 per angle."""
    circuit, params, latent = _prepare(circuit, params, latent, measured)
    plus, minus = _paired_shift_values(circuit, params, latent, measured, math.pi / 2)
    return (plus - minus) / 2.0


def finite_difference_oracle(circuit: GateList, params, latent=None, measured: int = 0,
                             h: float = 1e-4) -> np.ndarray:
    """Central differences [E(theta+h) - E(theta-h)] / (2h), noiseless."""
    if h <= 0:
        raise ConfigurationError(f"step size must be positive, got {h}")
    circuit, params, latent = _prepare(circuit, params, latent, measured)
    plus, minus = _paired_shift_values(circuit, params, latent, measured, h)
    return (plus - minus) / (2.0 * h)


def _z_diagonal(z_weights: np.ndarray, n: int) -> np.ndarray:
    """Diagonal of sum_j w_j Z_j for each row of weights, shape (..., 2^n)."""
    bits = (np.arange(1 << n) >> np.arange(n - 1, -1, -1)[:, None]) & 1
    return z_weights @ (1.0 - 2.0 * bits)


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
    states keep every state real.
    """
    params = np.asarray(params, dtype=np.float64)
    latent = None if latent is None else np.asarray(latent, dtype=np.float64)
    n = circuit.num_qubits
    circuit, _, _ = _prepare(circuit, _first_row(params), _first_row(latent))
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
    # psi and lam share one (2, rows, 2^Q) array, so that one kernel call
    # un-applies a gate from both
    both = np.empty((2, rows, dim), dtype=np.result_type(np.float64, final))
    psi, lam = both
    psi[...] = final
    lam[...] = _z_diagonal(z_weights, n) * psi

    grad_params = np.zeros((rows, params.shape[-1]))
    grad_latent = np.zeros((rows, latent.shape[-1] if latent is not None else 0))
    for g in reversed(circuit.gates):
        if g[0] not in (RY, DATA):
            # CNOT and Paulis undo themselves; on real rows Y is XZ, whose
            # square is -1, and that sign reaches psi and lam alike
            _apply_gate(both, n, g, params, latent)
            continue
        # dRY(t)/dt = (-iY/2) RY(t) with -iY real, so the derivative term is
        # <lam|(-iY)|psi> on the state after the gate (the 1/2 cancels the 2
        # of 2 Re<.>); only then is the gate un-applied from both states
        pv = _qubit_view(psi, n, g[1])
        lv = _qubit_view(lam, n, g[1]).conj()
        contrib = (np.einsum("...ij,...ij->...", lv[..., 1, :], pv[..., 0, :])
                   - np.einsum("...ij,...ij->...", lv[..., 0, :], pv[..., 1, :])).real
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
    both = np.stack([final, _z_diagonal(np.asarray(z_weights, dtype=np.float64), n) * final])
    grad = np.zeros(len(params))
    for _, lo, gates in reversed(cut):
        if lo is None:  # a CNOT wider than the window undoes itself
            _apply_gate(both, n, gates[0], None, None)
            continue
        mats, slots = _block_matrices(k, gates, params)  # M^T, then each D_j^T
        # psi_in = M^T psi_out, and lam likewise, on views with the window's
        # axis second last; a window at the low end is one matmul over rows
        m = n - lo - k
        out = both.reshape(2, -1, dim, 1 << m)
        into = np.matmul(mats[0], out) if m else (out[..., 0] @ mats[0].T)[..., None]
        gram = np.tensordot(into[0], out[1], axes=([0, 2], [0, 2]))  # C^T
        np.add.at(grad, slots, mats[1:].reshape(len(slots), dim * dim) @ gram.ravel())
        both = into.reshape(both.shape)
    return grad


def adjoint_gradient(circuit: GateList, params, latent=None, measured: int = 0) -> np.ndarray:
    """Adjoint-mode d<Z>/d(params); matches the shift rule on noiseless circuits."""
    circuit, params, latent = _prepare(circuit, params, latent, measured)
    n = circuit.num_qubits
    final = run_gates(np.eye(1, 1 << n), circuit, params, latent)  # one row from |0...0>
    return adjoint_observable_gradients(circuit, params, latent, np.eye(n)[measured], final)[0][0]

