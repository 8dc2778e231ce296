"""Independent oracles: closed forms, bisection roots, and a naive
pure-python evaluation of the balance defect.

Nothing here imports the package under test; these are the reference
routes the package is checked against.
"""

import math


# ----------------------------------------------------------------------
# two bodies
# ----------------------------------------------------------------------

def two_body_separation(m1, m2, omega, a):
    """Closed form: omega^2 = (m1 + m2) r^(2a)."""
    return (omega ** 2 / (m1 + m2)) ** (1.0 / (2.0 * a))


def two_body_separation_bisect(m1, m2, omega, a, lo=1e-8, hi=1e8):
    """Same root via bisection on g(r) = (m1+m2) r^(2a) - omega^2."""
    def g(r):
        return (m1 + m2) * r ** (2.0 * a) - omega ** 2

    assert g(lo) > 0.0 and g(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def two_body_points(m1, m2, omega, a, k=2):
    """Barycentric two-body configuration on the first axis."""
    r = two_body_separation(m1, m2, omega, a)
    total = m1 + m2
    p1 = [m2 * r / total] + [0.0] * (k - 1)
    p2 = [-m1 * r / total] + [0.0] * (k - 1)
    return [p1, p2]


def head_on_collision_time(a):
    """Time two unit masses at rest one apart take to collide, for a >= -1.

    Their separation r obeys r'' = -2 r^(2a+1), so with p = 2a + 2 energy
    gives r' = -2 sqrt((1 - r^p) / p) and the fall takes
    B(1/p, 1/2) / (2 sqrt(p)); at a = -1 (p -> 0) it is sqrt(pi) / 2.
    """
    p = 2.0 * a + 2.0
    if p == 0.0:
        return math.sqrt(math.pi) / 2.0
    beta = math.exp(math.lgamma(1.0 / p) + math.lgamma(0.5)
                    - math.lgamma(1.0 / p + 0.5))
    return beta / (2.0 * math.sqrt(p))


# ----------------------------------------------------------------------
# regular n-gon, equal masses
# ----------------------------------------------------------------------

def ngon_sin_sum(n, a):
    return sum(math.sin(math.pi * j / n) ** (2.0 * a + 2.0)
               for j in range(1, n))


def ngon_circumradius(n, m, omega, a):
    """Closed form: omega^2 = m 2^(2a+1) rho^(2a) sum_j sin^(2a+2)(pi j/n)."""
    s = ngon_sin_sum(n, a)
    return (omega ** 2 / (m * 2.0 ** (2.0 * a + 1.0) * s)) ** (1.0 / (2.0 * a))


def ngon_circumradius_bisect(n, m, omega, a, lo=1e-8, hi=1e8):
    s = ngon_sin_sum(n, a)

    def g(rho):
        return m * 2.0 ** (2.0 * a + 1.0) * rho ** (2.0 * a) * s - omega ** 2

    assert g(lo) > 0.0 and g(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ngon_points(n, rho, k=2):
    pts = []
    for j in range(n):
        theta = 2.0 * math.pi * j / n
        row = [rho * math.cos(theta), rho * math.sin(theta)] + [0.0] * (k - 2)
        pts.append(row)
    return pts


# ----------------------------------------------------------------------
# collinear three-body, equal masses: bodies at -d, 0, +d
# ----------------------------------------------------------------------

def euler_collinear_distance(m, omega, a):
    """Closed form for the outer-body distance d of the -d, 0, +d shape."""
    return (omega ** 2 / (m * (1.0 + 2.0 ** (2.0 * a + 1.0)))) ** (1.0 / (2.0 * a))


def euler_collinear_distance_bisect(m, omega, a, lo=1e-8, hi=1e8):
    def g(d):
        return m * (1.0 + 2.0 ** (2.0 * a + 1.0)) * d ** (2.0 * a) - omega ** 2

    assert g(lo) > 0.0 and g(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# naive defect evaluation (plain python lists and loops)
# ----------------------------------------------------------------------

def naive_residual(points, masses, frequencies, a):
    """Per-body balance defect computed from scratch, no numpy."""
    n = len(points)
    k = len(points[0])
    asq = [0.0] * k
    for l in range(k // 2):
        asq[2 * l] = frequencies[l] ** 2
        asq[2 * l + 1] = frequencies[l] ** 2
    out = []
    for i in range(n):
        row = [asq[c] * points[i][c] for c in range(k)]
        for j in range(n):
            if j == i:
                continue
            r2 = sum((points[i][c] - points[j][c]) ** 2 for c in range(k))
            w = masses[j] * r2 ** a
            for c in range(k):
                row[c] -= w * (points[i][c] - points[j][c])
        out.append(row)
    return out
