"""The Jordan block sizes that frobenius._class_blocks once computed from the matrix of the log map, kept as a test-only reference.

Each log derivative d/d(log t) of a solution is reduced in the echelon basis
of the class through its leading (offset, log degree) position, which gives
the size x size matrix of N; the ranks of N, N^2, ... come from Gaussian
elimination on its powers.  The package now reads every rank of N^k off one
elimination over the solution rows, so this reference shares none of that
path.
"""

from picardfuchs.arith import as_scalar, scalar_sort_key
from picardfuchs.errors import FrobeniusInvariant
from picardfuchs.frobenius import _integer_difference


def class_blocks(sols):
    """Jordan block sizes of the log map on one exponent class, from the matrix of N and the ranks of its powers."""
    base = min((s.alpha for s in sols), key=scalar_sort_key)
    offsets = [_integer_difference(s.alpha, base) for s in sols]
    N = min(s.truncation for s in sols)
    width = max(max(len(r) for r in s.table) for s in sols)

    def embed(sol, off):
        rows = [[as_scalar(0)] * width for _ in range(N + 1)]
        for m, row in enumerate(sol.table):
            if off + m > N:
                break
            for l, c in enumerate(row):
                rows[off + m][l] = c
        return rows

    tables = [embed(s, o) for s, o in zip(sols, offsets)]
    leads = {}
    for idx, sol in enumerate(sols):
        m0, l0 = sol.leading
        leads[(offsets[idx] + m0, l0)] = idx

    def reduce_against(rows):
        """Express rows in the echelon basis; returns the coefficient vector."""
        vec = [as_scalar(0)] * len(sols)
        guard = 0
        while True:
            pos = None
            for m in range(N + 1):
                nz = [l for l, c in enumerate(rows[m]) if c]
                if nz:
                    pos = (m, max(nz))
                    break
            if pos is None:
                return vec
            idx = leads.get(pos)
            if idx is None:
                raise FrobeniusInvariant("log-map image escapes the solution span at %s" % (pos,))
            c = rows[pos[0]][pos[1]]  # echelon leaders are normalized to 1
            vec[idx] = vec[idx] + c
            other = tables[idx]
            for m in range(N + 1):
                for l in range(width):
                    if other[m][l]:
                        rows[m][l] = rows[m][l] - c * other[m][l]
            guard += 1
            if guard > (N + 2) * width:
                raise FrobeniusInvariant("reduction does not terminate")

    mat = []
    for idx, sol in enumerate(sols):
        rows = [[as_scalar(0)] * width for _ in range(N + 1)]
        for m in range(N + 1):
            for l in range(width - 1):
                c = tables[idx][m][l + 1]
                if c:
                    rows[m][l] = c * (l + 1)
        mat.append(reduce_against(rows))
    # mat[i][j]: image of solution i expressed in solution j; ranks of powers
    size = len(sols)
    cols = [[mat[i][j] for i in range(size)] for j in range(size)]

    def matmul(A, B):
        return [
            [sum((A[i][k] * B[k][j] for k in range(size)), as_scalar(0)) for j in range(size)]
            for i in range(size)
        ]

    def rank(A):
        rows = [row[:] for row in A]
        rk, col = 0, 0
        while rk < size and col < size:
            piv = next((i for i in range(rk, size) if rows[i][col]), None)
            if piv is None:
                col += 1
                continue
            rows[rk], rows[piv] = rows[piv], rows[rk]
            inv = 1 / rows[rk][col]
            for i in range(rk + 1, size):
                f = rows[i][col] * inv
                if f:
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
            rk += 1
            col += 1
        return rk

    Nmat = cols
    ranks = [size]
    power = [row[:] for row in Nmat]
    while ranks[-1] > 0:
        ranks.append(rank(power))
        power = matmul(power, Nmat)
    blocks = []
    for k in range(1, len(ranks)):
        count = ranks[k - 1] - ranks[k]  # blocks of size >= k
        blocks.append(count)
    sizes = []
    for k in range(len(blocks), 0, -1):
        n_ge_k = blocks[k - 1]
        n_ge_next = blocks[k] if k < len(blocks) else 0
        sizes.extend([k] * (n_ge_k - n_ge_next))
    return sorted(sizes, reverse=True)
