"""Independent oracles for the benchmark's answer checks.

Nothing here imports malcevlab: every check re-derives the expected
answer from plain operation tables, so a defect in the library cannot
also hide in the oracle.  An algebra is a pair (size, ops) where ops
maps an operation name to (arity, flat row-major table).

Run this file to self-test the oracles: each must reject a planted
wrong answer.
"""

from __future__ import annotations

import re
import sys
from itertools import product
from math import comb, gcd

# ---------------------------------------------------------------------------
# plain algebras


def op_value(alg, name, args):
    size, ops = alg
    idx = 0
    for a in args:
        idx = idx * size + a
    return ops[name][1][idx]


def cyclic(n):
    return (n, {"mul": (2, tuple((a + b) % n for a in range(n) for b in range(n))),
                "inv": (1, tuple((-a) % n for a in range(n))),
                "e": (0, (0,))})


def chain(n):
    return (n, {"meet": (2, tuple(min(a, b) for a in range(n) for b in range(n)))})


def product_of(factors):
    """Mixed-radix product, first factor most significant."""
    sizes = [f[0] for f in factors]
    size = 1
    for s in sizes:
        size *= s

    def decode(x):
        out = []
        for s in reversed(sizes):
            out.append(x % s)
            x //= s
        return out[::-1]

    def encode(coords):
        x = 0
        for c, s in zip(coords, sizes):
            x = x * s + c
        return x

    coords = [decode(x) for x in range(size)]
    ops = {}
    for name, (arity, _) in factors[0][1].items():
        table = []
        for args in product(range(size), repeat=arity):
            table.append(encode([op_value(f, name, [coords[a][i] for a in args])
                                 for i, f in enumerate(factors)]))
        ops[name] = (arity, tuple(table))
    return (size, ops)


def relabel(alg, perm):
    """Isomorphic copy in which element x is renamed perm[x]."""
    size, ops = alg
    inv = [0] * size
    for x, y in enumerate(perm):
        inv[y] = x
    out = {}
    for name, (arity, _) in ops.items():
        out[name] = (arity, tuple(
            perm[op_value(alg, name, [inv[a] for a in args])]
            for args in product(range(size), repeat=arity)))
    return (size, out)


# ---------------------------------------------------------------------------
# terms: a separate parser and table-walking evaluator

_TOKEN = re.compile(r"\s*(x\d+|[A-Za-z_][A-Za-z0-9_]*|[(),])")


def parse(text):
    """Printed term -> nested tuples: ("var", i) or (op, child, ...)."""
    tokens = []
    pos = 0
    while text[pos:].strip():
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad term at column {pos}: {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    i = 0

    def term():
        nonlocal i
        tok = tokens[i]
        i += 1
        if tok is None or tok in "(),":
            raise ValueError(f"expected a symbol in {text!r}")
        if re.fullmatch(r"x\d+", tok):
            return ("var", int(tok[1:]))
        if tokens[i] != "(":
            return (tok,)
        args = []
        while tokens[i] in ("(", ","):
            i += 1
            args.append(term())
        if tokens[i] != ")":
            raise ValueError(f"expected ')' in {text!r}")
        i += 1
        return (tok, *args)

    t = term()
    if tokens[i] is not None:
        raise ValueError(f"trailing text in {text!r}")
    return t


def evaluate(t, assignment, alg):
    if t[0] == "var":
        return assignment[t[1]]
    return op_value(alg, t[0], [evaluate(c, assignment, alg) for c in t[1:]])


def malcev_error(term_text, alg):
    """None when the printed term satisfies P(x,x,z)=z and P(x,z,z)=x."""
    t = parse(term_text)
    for x in range(alg[0]):
        for z in range(alg[0]):
            if evaluate(t, (x, x, z), alg) != z:
                return f"{term_text} fails P(x,x,z)=z at x={x}, z={z}"
            if evaluate(t, (x, z, z), alg) != x:
                return f"{term_text} fails P(x,z,z)=x at x={x}, z={z}"
    return None


def biternary_error(alpha_text, beta_text, alg):
    a, b = parse(alpha_text), parse(beta_text)
    n = alg[0]
    for x, y in product(range(n), repeat=2):
        if evaluate(a, (x, x, y), alg) != y:
            return f"alpha(x,x,y) = y fails at {x},{y}"
        for z in range(n):
            if evaluate(a, (evaluate(b, (x, y, z), alg), y, z), alg) != x:
                return f"alpha(beta(x,y,z),y,z) = x fails at {x},{y},{z}"
            if evaluate(b, (evaluate(a, (x, y, z), alg), y, z), alg) != x:
                return f"beta(alpha(x,y,z),y,z) = x fails at {x},{y},{z}"
    return None


def associative(alg, name="mul"):
    n = alg[0]
    table = alg[1][name][1]
    return all(table[table[a * n + b] * n + c] == table[a * n + table[b * n + c]]
               for a in range(n) for b in range(n) for c in range(n))


# ---------------------------------------------------------------------------
# congruences by brute force over partitions


def partitions(n):
    """Every partition of range(n) as a least-member block_of tuple."""
    def grow(prefix, blocks):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        x = len(prefix)
        for r in blocks:
            yield from grow(prefix + [r], blocks)
        yield from grow(prefix + [x], blocks + [x])
    yield from grow([], [])


def stable(alg, block_of):
    size, ops = alg
    for name, (arity, table) in ops.items():
        for args in product(range(size), repeat=arity):
            v = block_of[op_value(alg, name, args)]
            for pos in range(arity):
                for y in range(size):
                    if y != args[pos] and block_of[y] == block_of[args[pos]]:
                        alt = args[:pos] + (y,) + args[pos + 1:]
                        if block_of[op_value(alg, name, alt)] != v:
                            return False
    return True


def congruences(alg):
    return sorted(p for p in partitions(alg[0]) if stable(alg, p))


def compose(theta, xi):
    n = len(theta)
    return {(a, c) for a in range(n) for b in range(n) for c in range(n)
            if theta[a] == theta[b] and xi[b] == xi[c]}


def all_permute(alg):
    cons = congruences(alg)
    return all(compose(s, t) == compose(t, s)
               for i, s in enumerate(cons) for t in cons[i + 1:])


def chain_lattice_size(n):
    """Con of an n-element chain: any set of the n-1 covering pairs."""
    return 2 ** (n - 1)


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def elementary_abelian_lattice_size(rank):
    """Subgroups of Z2^rank: a sum of Gaussian binomials at q = 2."""
    total = 0
    for k in range(rank + 1):
        num = den = 1
        for i in range(k):
            num *= 2 ** (rank - i) - 1
            den *= 2 ** (i + 1) - 1
        total += num // den
    return total


# ---------------------------------------------------------------------------
# homomorphisms, groups, free algebras


def is_hom(phi, a, b):
    for name, (arity, _) in a[1].items():
        for args in product(range(a[0]), repeat=arity):
            if phi[op_value(a, name, args)] != \
                    op_value(b, name, [phi[x] for x in args]):
                return False
    return True


def homomorphisms(a, b):
    return sorted(phi for phi in product(range(b[0]), repeat=a[0])
                  if is_hom(phi, a, b))


def chain_hom_count(n, k):
    """Meet homomorphisms of chains are the monotone maps."""
    return comb(n + k - 1, k - 1)


def cyclic_hom_count(m_rank, m, n):
    """Group homomorphisms (Z_m)^rank -> Z_n."""
    return gcd(m, n) ** m_rank


def group_closure(generators, size):
    """Breadth-first closure of permutations under the generators."""
    identity = tuple(range(size))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                c = tuple(h[g[x]] for x in range(size))
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def closure_error(generators, closure, size):
    if any(sorted(g) != list(range(size)) for g in generators):
        return "a generator is not a permutation"
    expected = group_closure(generators, size)
    if set(closure) != expected:
        return (f"closure has {len(set(closure))} maps, breadth-first search "
                f"under the generators gives {len(expected)}")
    return None


def free_size(kind, rank):
    """Free Z2-class algebra: 2^rank; free semilattice: 2^rank - 1."""
    return 2 ** rank if kind == "z2" else 2 ** rank - 1


def translations(alg, side):
    n = alg[0]
    table = alg[1]["mul"][1]
    gens = set()
    if side in ("left", "both"):
        gens.update(tuple(table[a * n + x] for x in range(n)) for a in range(n))
    if side in ("right", "both"):
        gens.update(tuple(table[x * n + a] for x in range(n)) for a in range(n))
    return sorted(gens)


# ---------------------------------------------------------------------------
# self-test: every oracle rejects a planted wrong answer


def self_test():
    """Return the list of oracles that accepted a planted wrong answer."""
    missed = []
    z4 = cyclic(4)
    if malcev_error("mul(inv(x1), mul(x0, x2))", z4) is not None:
        missed.append("malcev: rejected a true Mal'cev term")
    if malcev_error("mul(x0, mul(x1, x2))", z4) is None:
        missed.append("malcev: accepted a term that is not a Mal'cev term")
    if biternary_error("mul(inv(x0), mul(x1, x2))", "mul(x0, x2)", z4) is None:
        missed.append("biternary: accepted a wrong pair")
    c4 = chain(4)
    if len(congruences(c4)) != chain_lattice_size(4):
        missed.append("congruences: brute force disagrees with 2^(n-1)")
    if len(congruences(c4)) - 1 == chain_lattice_size(4):
        missed.append("congruences: accepted a chain lattice one short")
    if all_permute(c4):
        missed.append("permutability: chain congruences reported permuting")
    if len(homomorphisms(chain(3), chain(2))) != chain_hom_count(3, 2):
        missed.append("homomorphisms: brute force disagrees with the formula")
    rot = (1, 2, 0)
    if closure_error([rot], group_closure([rot], 3), 3) is not None:
        missed.append("closure: rejected a true group closure")
    planted = group_closure([rot], 3) | {(1, 0, 2)}
    if closure_error([rot], planted, 3) is None:
        missed.append("closure: accepted a closure with an extra permutation")
    if elementary_abelian_lattice_size(4) != 67 or divisor_count(24) != 8:
        missed.append("lattice formulas: wrong closed form")
    return missed


if __name__ == "__main__":
    failures = self_test()
    for f in failures:
        print("FAIL", f)
    print("oracle self-test:", "failed" if failures else "ok")
    sys.exit(1 if failures else 0)
