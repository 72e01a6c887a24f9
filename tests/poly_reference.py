"""Hand-rolled references for the F_q[x] questions that `charzero.ffield`
answers with its one divider (`fq_poly_divmod`) and one factoriser
(`fq_poly_factor_cubic_or_less`): irreducibility over F_p by a root scan
and mod-p trial division, squarefreeness by gcd(f, f'), and nilpotency by
the powers of the matrix.  They are the routines the package used before
every such question went through the divider and the factoriser."""

from charzero.ffield import Field, fq_poly_divmod, fq_poly_trim, to_digits
from charzero.matgroup import mat_mul


def poly_is_irreducible(coeffs: list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p: no root, then no monic
    divisor of degree 2..deg/2 by trial division with residues mod p."""
    e = len(coeffs) - 1
    if e == 1:
        return True
    if coeffs[0] == 0:  # root at zero
        return False
    for x in range(p):  # linear factors
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    for d in range(2, e // 2 + 1):
        for idx in range(p**d):
            div = to_digits(idx, p, d) + [1]
            rem = coeffs[:]
            for k in range(len(rem) - 1, d - 1, -1):
                f = rem[k] % p
                if f:
                    for j in range(d + 1):
                        rem[k - d + j] = (rem[k - d + j] - f * div[j]) % p
            if all(c % p == 0 for c in rem[:d]):
                return False
    return True


def least_irreducible(p: int, e: int) -> tuple[int, ...]:
    """The least monic irreducible of degree e over F_p in lexicographic
    order on (c_0, ..., c_{e-1}), x itself when e = 1."""
    if e == 1:
        return (0, 1)
    return next(tuple(c) for c in (to_digits(idx, p, e) + [1] for idx in range(p**e))
                if poly_is_irreducible(c, p))


def _poly_gcd(F: Field, a: list[int], b: list[int]) -> list[int]:
    a, b = fq_poly_trim(a[:]), fq_poly_trim(b[:])
    while b:
        _, r = fq_poly_divmod(F, a, b)
        a, b = b, r
    if a:
        c = F.inv[a[-1]]
        a = [F.mul[c][x] for x in a]
    return a


def _poly_derivative(F: Field, a: list[int]) -> list[int]:
    out = []
    for i in range(1, len(a)):
        acc = 0
        for _ in range(i % F.p):
            acc = F.add[acc][a[i]]
        out.append(acc)
    return fq_poly_trim(out)


def is_squarefree(F: Field, a: list[int]) -> bool:
    """Over a perfect field: a nonconstant f is squarefree iff f' != 0 and
    gcd(f, f') = 1 (f' = 0 forces f to be a p-th power)."""
    a = fq_poly_trim(a[:])
    if len(a) <= 1:
        return True
    d = _poly_derivative(F, a)
    return bool(d) and len(_poly_gcd(F, a, d)) == 1


def is_nilpotent(F: Field, n: int, a: tuple[int, ...]) -> bool:
    """Whether a^n = 0, by multiplying out the powers of a."""
    zero = tuple(0 for _ in range(n * n))
    power = a
    for _ in range(n):
        if power == zero:
            return True
        power = mat_mul(F, n, power, a)
    return power == zero
