"""Count tables of the braid, D_N and B_N arrangements, from signed graphs alone.

An oracle for `count_flats` that shares no code with the package: it imports
only `math`, and a polynomial in x is a list of ints (coefficient of x^s at
index s).

In a signed graph on N vertices (Zaslavsky, "Signed graphs", 1982),
x_i = x_j is a positive edge, x_i = -x_j a negative edge and x_i = 0 a half
edge.  The flat of an edge set has dimension b, the number of its balanced
components (isolated vertices count), and is never empty.  With e(m) the
number of edges on m vertices (m(m-1)/2 for braid, m(m-1) for D, m^2 for B)
the exponential formula (Stanley, EC2 section 5.1) gives, from
All_m = (1 + x)^e(m):

* the connected edge sets, Conn_m = All_m - sum_{j<m} C(m-1, j-1) Conn_j All_{m-j};
* the balanced ones, Bal_m = 2^(m-1) Conn_m(K_m), as a balanced connected set
  switches to an all-positive one in 2^(m-1) ways (braid: Bal = Conn);
* the unbalanced ones, Unb_m = Conn_m - Bal_m;
* Z_0 = 1 and Z_N = sum_m C(N-1, m-1) (u Bal_m + Unb_m) Z_{N-m}.

The coefficient of x^s u^b in Z_N counts the size-s edge sets with b
balanced components.
"""

from math import comb

# family: (e(m), the dimension the essential part drops)
FAMILIES = {
    "braid": (lambda m: m * (m - 1) // 2, 1),
    "D": (lambda m: m * (m - 1), 0),
    "B": (lambda m: m * m, 0),
}


def _add(a: list, b: list, c: int = 1) -> list:
    """a + c b."""
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += c * y
    return out


def _mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _connected(edges, n: int) -> list:
    """[None, Conn_1, ..., Conn_n] for e(m) = edges(m)."""
    every = [[comb(edges(m), s) for s in range(edges(m) + 1)] for m in range(n + 1)]
    conn = [None]
    for m in range(1, n + 1):
        poly = every[m]
        for j in range(1, m):
            poly = _add(poly, _mul(conn[j], every[m - j]), -comb(m - 1, j - 1))
        conn.append(poly)
    return conn


def family_counts(family: str, n: int) -> dict:
    """counts[(s, d)] of `count_flats` on the essential part of the family on n coordinates."""
    edges, shift = FAMILIES[family]
    conn = _connected(edges, n)
    if family == "braid":
        bal, unb = conn, [[0]] * (n + 1)
    else:
        trees = _connected(FAMILIES["braid"][0], n)
        bal = [None] + [[2 ** (m - 1) * c for c in trees[m]] for m in range(1, n + 1)]
        unb = [None] + [_add(conn[m], bal[m], -1) for m in range(1, n + 1)]
    # z[k][b]: the polynomial of the edge sets on k vertices with b balanced components.
    z = [[[1]]]
    for k in range(1, n + 1):
        zk = [[0] for _ in range(k + 1)]
        for m in range(1, k + 1):
            c = comb(k - 1, m - 1)
            for b, poly in enumerate(z[k - m]):
                zk[b + 1] = _add(zk[b + 1], _mul(bal[m], poly), c)
                zk[b] = _add(zk[b], _mul(unb[m], poly), c)
        z.append(zk)
    return {
        (s, b - shift): c
        for b, poly in enumerate(z[n])
        for s, c in enumerate(poly)
        if s and c
    }
