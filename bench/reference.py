"""Independent reference arithmetic for the benchmark's correctness checks.

Nothing here imports nbhd: the checks compare the library's results with
answers computed from the benchmark's own generated inputs.  Polynomials are
plain dicts from exponent tuples to coefficients; a ring is a
(kind, modulus) pair with kind "Q", "Z" or "Zmod".
"""

from __future__ import annotations

from fractions import Fraction


class Ring:
    """Exact coefficient arithmetic: Fraction over Q, int over Z, residues mod m."""

    def __init__(self, kind: str, modulus: int | None = None):
        if kind not in ("Q", "Z", "Zmod"):
            raise ValueError(f"unknown ring kind {kind!r}")
        self.kind = kind
        self.modulus = modulus

    def value(self, v):
        if self.kind == "Q":
            return Fraction(v)
        if self.kind == "Z":
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    raise ValueError(f"{v} is not an integer")
                v = v.numerator
            return int(v)
        if isinstance(v, Fraction):
            return v.numerator * pow(v.denominator, -1, self.modulus) % self.modulus
        return v % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus if self.kind == "Zmod" else a + b

    def neg(self, a):
        return -a % self.modulus if self.kind == "Zmod" else -a

    def mul(self, a, b):
        return a * b % self.modulus if self.kind == "Zmod" else a * b

    def inverse(self, a):
        return 1 / a if self.kind == "Q" else pow(a, -1, self.modulus)


def _add_term(out: dict, exps: tuple, value, ring: Ring) -> None:
    s = ring.add(out[exps], value) if exps in out else value
    if s == 0:
        out.pop(exps, None)
    else:
        out[exps] = s


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# truncated jets: arithmetic in a monomial quotient R[e]/(m_1, ..., m_k)


def in_ideal(exps: tuple, divisors) -> bool:
    return any(_divides(d, exps) for d in divisors)


def truncate(p: dict, divisors) -> dict:
    return {e: v for e, v in p.items() if not in_ideal(e, divisors)}


def jet_mul(a: dict, b: dict, divisors, ring: Ring) -> dict:
    """Product in the monomial quotient; terms in the ideal are never kept."""
    out: dict = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if not in_ideal(e, divisors):
                _add_term(out, e, ring.mul(va, vb), ring)
    return out


def jet_pow(base: dict, n: int, divisors, ring: Ring, width: int) -> dict:
    result = {(0,) * width: ring.value(1)}
    while n:
        if n & 1:
            result = jet_mul(result, base, divisors, ring)
        n >>= 1
        if n:
            base = jet_mul(base, base, divisors, ring)
    return result


def jet_evaluate(poly: dict, images: list, divisors, ring: Ring, width: int) -> dict:
    """poly (over the domain variables) evaluated at the images, truncated.

    Powers are reduced after every product, so no intermediate term ever
    leaves the finite set of standard monomials.
    """
    powers: dict = {}
    out: dict = {}
    for exps, coeff in poly.items():
        term = {(0,) * width: ring.value(coeff)}
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in powers:
                    powers[(i, e)] = jet_pow(images[i], e, divisors, ring, width)
                term = jet_mul(term, powers[(i, e)], divisors, ring)
        for e, v in term.items():
            _add_term(out, e, v, ring)
    return out


# ---------------------------------------------------------------------------
# reduced Groebner basis checks


def order_key(order: str):
    """Sort key of a monomial order; a bigger key is a bigger monomial."""
    if order == "lex":
        return lambda exps: exps
    if order == "degrevlex":
        return lambda exps: (sum(exps), tuple(-e for e in reversed(exps)))
    raise ValueError(f"unknown order {order!r}")


def remainder(p: dict, basis: list, key, ring: Ring) -> dict:
    """Remainder of full division of p by basis (field coefficients)."""
    leads = [(max(g, key=key), g) for g in basis]
    work = dict(p)
    rem: dict = {}
    while work:
        lead = max(work, key=key)
        value = work[lead]
        for g_lead, g in leads:
            if _divides(g_lead, lead):
                shift = tuple(x - y for x, y in zip(lead, g_lead))
                factor = ring.neg(ring.mul(value, ring.inverse(g[g_lead])))
                for e, v in g.items():
                    target = tuple(x + y for x, y in zip(e, shift))
                    _add_term(work, target, ring.mul(factor, v), ring)
                break
        else:
            rem[lead] = value
            del work[lead]
    return rem


def basis_problems(relations: list, basis: list, order: str, ring: Ring) -> list[str]:
    """Why basis is not a reduced basis containing the relations' ideal.

    Checks that every relation reduces to zero, that every element is monic,
    and that no term of an element is divisible by another element's
    leading monomial.  An empty list means all checks passed.
    """
    key = order_key(order)
    problems = []
    leads = [max(g, key=key) if g else None for g in basis]
    for i, g in enumerate(basis):
        if not g:
            problems.append(f"basis element {i} is zero")
            continue
        if g[leads[i]] != ring.value(1):
            problems.append(f"basis element {i} is not monic")
        for j, lead in enumerate(leads):
            if j != i and lead is not None and any(_divides(lead, e) for e in g):
                problems.append(f"basis element {i} is reducible by element {j}")
                break
    if problems:
        return problems
    for k, r in enumerate(relations):
        if remainder(r, basis, key, ring):
            problems.append(f"relation {k} does not reduce to zero")
    return problems
