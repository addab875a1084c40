#!/usr/bin/env python3
"""Real-space reference with no k-mesh: the local Chern marker of an open Haldane flake.

An open flake of L x L unit cells (2 L^2 sites) is diagonalized densely with
numpy.linalg.eigh; P projects onto the lower L^2 states and Q = 1 - P.  With the
site positions X and Y as diagonal operators, the marker operator is

    F = -(4 pi / A_c) (P X Q Y P - P Y Q X P) / (2i),    A_c = 3 sqrt(3) / 2,

the real-space unit-cell area (Bianco & Resta, PRB 84, 241106(R) (2011)).  Its
trace over one cell's two sites is the local Chern marker, and <A_R|F|B_R> is
the cell's filtered (witness) response JF: a rank-one P makes F's Bloch
transform F(k) P(k), so this contraction is the mean of F(k) times the
intra-cell coherence, with no gauge choice and no zone boundary.  The order of
the factors matters: P X Q P Y (not P X Q Y P) gives C = 0 to rounding.

Orientation: Bianco and Resta state the marker for the Berry curvature
-2 Im <d_x u|d_y u>.  The library's lattice C (Fukui-Hatsugai-Suzuki link
phases, like ``oracle_reference.fhs_chern``) and ``analytic_chern`` count the
opposite orientation, (1/2 pi i) curl <u|grad u>, so this script reports the
marker and JF as minus the traces of F above: the marker is then C itself.

Conventions (those of the Bloch Hamiltonian h(k), read through
|k, s> = sum_R exp(i k.r_s) |R, s>): A sits at R = i a1 + j a2 and B at R - delta_1,
with a1 = (sqrt3, 0), a2 = (sqrt3/2, 3/2) and delta_1 = (0, 1), so each B has its
three A neighbours at B + delta_m; <A_R|H|A_{R+b}> = t2 e^{i phi} and
<B_R|H|B_{R+b}> = t2 e^{-i phi} for b in (-a1, a2, a1 - a2); the stagger is +M on A.

Run:  python3 tests/oracles/realspace_flake.py
This script must not import the package under test.
"""
import numpy as np

SQ3 = np.sqrt(3.0)
#: Real-space unit-cell area |a1 x a2|.
CELL_AREA = 3.0 * SQ3 / 2.0
#: NN bonds of the B site in cell (i, j): its A neighbours in cells (i, j) + offset.
NN_CELLS = [(0, 0), (0, -1), (1, -1)]
#: NNN vectors b_j = -a1, a2, a1 - a2 in cell coordinates.
NNN_CELLS = [(-1, 0), (0, 1), (1, -1)]


def flake_hamiltonian(L, t1, t2, phi, M):
    """Dense H and the site positions (x, y) of an open L x L flake; site 2 (i L + j) is A, +1 is B."""
    idx = lambda i, j, s: 2 * (i * L + j) + s
    H = np.zeros((2 * L * L, 2 * L * L), dtype=complex)
    for i in range(L):
        for j in range(L):
            H[idx(i, j, 0), idx(i, j, 0)] = M
            H[idx(i, j, 1), idx(i, j, 1)] = -M
            for di, dj in NN_CELLS:
                if 0 <= i + di < L and 0 <= j + dj < L:
                    H[idx(i, j, 1), idx(i + di, j + dj, 0)] = H[idx(i + di, j + dj, 0), idx(i, j, 1)] = t1
            for di, dj in NNN_CELLS:
                if 0 <= i + di < L and 0 <= j + dj < L:
                    for s, phase in ((0, np.exp(1j * phi)), (1, np.exp(-1j * phi))):
                        H[idx(i, j, s), idx(i + di, j + dj, s)] = t2 * phase
                        H[idx(i + di, j + dj, s), idx(i, j, s)] = t2 * np.conj(phase)
    i, j = np.divmod(np.arange(L * L), L)
    x = np.repeat(SQ3 * i + SQ3 / 2 * j, 2)
    y = np.repeat(1.5 * j, 2) - np.tile([0.0, 1.0], L * L)
    return H, x, y


def marker_block(L, t1, t2, phi, M, cells):
    """The marker operator F between the sites of ``cells`` (a list of (i, j)): rows and columns
    2c and 2c + 1 are cell c's A and B site."""
    H, x, y = flake_hamiltonian(L, t1, t2, phi, M)
    _, vecs = np.linalg.eigh(H)
    V = vecs[:, : L * L]                                       # the lower half of the spectrum
    sites = np.array([2 * (i * L + j) + s for i, j in cells for s in (0, 1)])
    P_rows = V[sites] @ V.conj().T                             # rows of P at the chosen sites

    def pxqyp(a, b):
        # (P diag(a) Q diag(b) P) restricted to the chosen sites, with Q = 1 - P
        left, right = P_rows * a, (b[:, None] * P_rows.conj().T)
        return left @ right - (left @ V) @ (V.conj().T @ right)

    return -(4.0 * np.pi / CELL_AREA) * (pxqyp(x, y) - pxqyp(y, x)) / 2j


def bulk_marker_and_jf(L, t1, t2, phi, M, bulk=4):
    """(local Chern marker, JF) averaged over the central bulk x bulk cells, in the library's
    orientation: minus the mean of Tr_cell F and of <A_R|F|B_R>."""
    lo = (L - bulk) // 2
    cells = [(i, j) for i in range(lo, lo + bulk) for j in range(lo, lo + bulk)]
    F = -marker_block(L, t1, t2, phi, M, cells)
    diag = np.real(np.diag(F))
    return float(np.mean(diag[0::2] + diag[1::2])), complex(np.mean(np.diag(F, 1)[0::2]))


if __name__ == "__main__":
    import time

    for M in (0.5, 2.5):
        t0 = time.perf_counter()
        marker, jf = bulk_marker_and_jf(20, 1.0, 1.0 / 3.0, np.pi / 2, M)
        print(f"L = 20, M = {M}: marker {marker:.6f}, |JF| {abs(jf):.6f} ({time.perf_counter() - t0:.2f} s)")
