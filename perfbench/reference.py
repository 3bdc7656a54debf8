"""Independent reference for checking tribelief's outputs.

Nothing here imports tribelief.  The connectives come from the truth tables
in the package description: values are the ints 0 (false), 1 (u) and
2 (true), conjunction is minimum, disjunction maximum, negation swaps the
extremes, the four modalities shift a value as tabulated, and ``a -> b`` is
``~a | b``.  Formulas are nested tuples: ``("x", i)``, ``("bot",)``,
``(op, child)`` for the five prefix operators and ``(op, left, right)`` for
``&``, ``|`` and ``->``.

Worlds are listed in the documented canonical order: base three with digit
order 0 < u < 1 and x0 most significant.  Levels are 1 (value 1, accepted),
2 (u, uncertain) and 3 (0, rejected).
"""

import itertools

SYMBOLS = "0u1"

UNARY = {
    "~": lambda v: 2 - v,
    "<>1": lambda v: max(v - 1, 0),  # 1 -> u, u -> 0, 0 -> 0
    "[]1": lambda v: min(v + 1, 2),  # 1 -> 1, u -> 1, 0 -> u
    "<>2": lambda v: 2 if v == 2 else 0,  # 1 -> 1, u -> 0, 0 -> 0
    "[]2": lambda v: 0 if v == 0 else 2,  # 1 -> 1, u -> 1, 0 -> 0
}
BINARY = {"&": min, "|": max, "->": lambda a, b: max(2 - a, b)}

# Cell (i, j) of a table is the output level for old level i and new level j,
# row-major.  drastic: the new information's level always wins.  ci: the new
# level wins, except that a flatly opposed old level (1 against 3 or 3
# against 1) stops the world at the uncertain level 2.
NAMED_TABLES = {
    "drastic": tuple(j for i in (1, 2, 3) for j in (1, 2, 3)),
    "ci": tuple(2 if {i, j} == {1, 3} else j for i in (1, 2, 3) for j in (1, 2, 3)),
}

CI_POSTULATES = ("CI1", "CI2", "CI3", "CI4", "CI5", "CI6", "CI7", "CI8", "CI1'", "CI2'")


def worlds(n):
    return list(itertools.product(range(3), repeat=n))


def value(f, w):
    tag = f[0]
    if tag == "x":
        return w[f[1]]
    if tag == "bot":
        return 0
    if tag in UNARY:
        return UNARY[tag](value(f[1], w))
    return BINARY[tag](value(f[1], w), value(f[2], w))


def levels(f, n):
    return tuple(3 - value(f, w) for w in worlds(n))


def literal(w, sep=","):
    return sep.join(SYMBOLS[v] for v in w)


def text(f):
    """Fully parenthesized formula text in the documented syntax."""
    tag = f[0]
    if tag == "x":
        return f"x{f[1]}"
    if tag == "bot":
        return "bot"
    if tag in UNARY:
        return f"{tag} {text(f[1])}"
    return f"({text(f[1])} {tag} {text(f[2])})"


def random_formula(rng, n, budget):
    """A random formula over x0..x(n-1) with at most ``budget`` connectives."""
    if budget <= 0 or rng.random() < 0.15:
        return ("bot",) if rng.random() < 0.1 else ("x", rng.randrange(n))
    op = rng.choice(("~", "<>1", "[]1", "<>2", "[]2", "&", "|", "->", "&", "|"))
    if op in UNARY:
        return (op, random_formula(rng, n, budget - 1))
    left = rng.randrange(budget)
    return (op, random_formula(rng, n, left), random_formula(rng, n, budget - 1 - left))


_TOKENS = ("->", "<>1", "[]1", "<>2", "[]2", "~", "&", "|", "(", ")")


def _tokenize(s):
    out, i = [], 0
    while i < len(s):
        if s[i].isspace():
            i += 1
            continue
        for tok in _TOKENS:
            if s.startswith(tok, i):
                out.append(tok)
                i += len(tok)
                break
        else:
            if s.startswith("bot", i):
                out.append(("bot",))
                i += 3
            elif s[i] == "x":
                j = i + 1
                while j < len(s) and s[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ValueError(f"bad variable at {i} in {s[:60]!r}")
                out.append(("x", int(s[i + 1 : j])))
                i = j
            else:
                raise ValueError(f"unexpected {s[i]!r} at {i} in {s[:60]!r}")
    return out


def parse(s):
    """Parse formula text: prefix operators bind tightest, then ``&``, ``|``
    (both left-associative) and ``->`` (right-associative)."""
    toks = _tokenize(s)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ValueError(f"unexpected end of {s[:60]!r}")
        pos += 1
        return tok

    def implication():
        left = chain("|", conjunction)
        if peek() == "->":
            take()
            return ("->", left, implication())
        return left

    def conjunction():
        return chain("&", unary)

    def chain(op, sub):
        out = sub()
        while peek() == op:
            take()
            out = (op, out, sub())
        return out

    def unary():
        prefixes = []
        while peek() in UNARY:
            prefixes.append(take())
        out = atom()
        for op in reversed(prefixes):
            out = (op, out)
        return out

    def atom():
        tok = take()
        if tok == "(":
            inner = implication()
            if take() != ")":
                raise ValueError(f"expected ')' in {s[:60]!r}")
            return inner
        if isinstance(tok, tuple):
            return tok
        raise ValueError(f"unexpected {tok!r} in {s[:60]!r}")

    out = implication()
    if peek() is not None:
        raise ValueError(f"trailing {peek()!r} in {s[:60]!r}")
    return out


# Expected standard output of each `tri` subcommand, as a list of lines.


def eval_lines(f, w):
    return [SYMBOLS[value(f, w)]]


def table_lines(f, n):
    return [f"{literal(w, ' ')} : {SYMBOLS[value(f, w)]}" for w in worlds(n)]


def classify_lines(f, n):
    lines = []
    for label, v in (("models", 2), ("quasi-models", 1), ("countermodels", 0)):
        body = " ".join(literal(w) for w in worlds(n) if value(f, w) == v)
        lines.append(f"{label}: {body}" if body else f"{label}:")
    return lines


def revise_lines(cells, f, g, n):
    old, new = levels(f, n), levels(g, n)
    combined = (cells[(i - 1) * 3 + (j - 1)] for i, j in zip(old, new))
    return [" ".join(f"{literal(w)}:{level}" for w, level in zip(worlds(n), combined))]


def ci_lines():
    # The cautious operator satisfies every postulate of its suite; n=1 has
    # 27 rankings, so 27 * 27 pairs.
    return [f"{name} PASS" for name in CI_POSTULATES] + ["checked 729 ranking pair(s)"]


def charac_lines(serial):
    # Every table is characterized by its postulate formulas; all 729 pairs at n=1.
    return [f"table {serial}: characterization PASS (729 pair(s))"]


def closure_witness(lines):
    """None when a closure report is DISJOINT with every forbidden member OUT."""
    members = [line.split() for line in lines if line.startswith("  ")]
    announced = next((line for line in lines if line.startswith("forbidden family (")), "")
    if not members or announced != f"forbidden family ({len(members)} rankings):":
        return f"malformed forbidden-family listing: {announced!r}"
    inside = [serial for serial, flag in members if flag != "OUT"]
    if inside:
        return f"forbidden rankings reachable: {' '.join(inside)}"
    if lines[-1:] != ["verdict: DISJOINT"]:
        return f"verdict line {lines[-1:]!r}"
    return None


def models_witness(formula_text, n, wanted):
    """None when the formula's models are exactly the worlds in ``wanted``."""
    f = parse(formula_text)
    got = {w for w in worlds(n) if value(f, w) == 2}
    if got != set(wanted):
        return f"models {sorted(got)} instead of {sorted(wanted)}"
    return None


def ranking_witness(formula_text, n, wanted_levels):
    """None when the formula induces exactly the ranking ``wanted_levels``."""
    got = levels(parse(formula_text), n)
    if got != tuple(wanted_levels):
        return f"induces {''.join(map(str, got))} instead of {''.join(map(str, wanted_levels))}"
    return None
