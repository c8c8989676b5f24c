"""Command line driver: run suites, expand expressions, print Jordan data.

Exit codes: 0 all checks pass, 1 at least one identity failed,
2 configuration or parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .harness import SUITES, SuiteConfig, run_suite
from .models import Registry
from .scalars import CyclotomicLevelError, Vec, lattice, linear
from .series import Box, format_series, series_to_json
from .automorphism import jordan_decompose
from .twistop import twist_chain


class ExprError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(Ytw|Yg|Y|-?\d+(?:/\d+)?|[A-Za-z_][A-Za-z0-9_]*[+-]?|\(|\)|,)")
# the names the grammar gives a meaning, which no variable may take
_RESERVED = ("vac", "vac+", "vac-", "Y", "Yg", "Ytw")


class _Parser:
    """Minimal expression grammar for inspection:

    expr   := opapp* atom
    opapp  := ('Y' | 'Yg' | 'Ytw') '(' atom ',' var ')'
    var    := an identifier not reserved above, each used once
    atom   := 'vac' | 'vac+' | 'vac-' | '1' | gen | gen '(' rational ')' atom

    An operator's argument is an atom, a state: an operator inside an atom
    is a nested operator, and is refused.
    """

    def __init__(self, text):
        self.tokens = []
        pos, end = 0, len(text.rstrip())
        while pos < end:
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ExprError("unexpected character %r"
                                % text[pos:].lstrip()[0])
            self.tokens.append(m.group(1))
            pos = m.end()
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression")
        if expect is not None and tok != expect:
            raise ExprError("expected %r, found %r" % (expect, tok))
        self.pos += 1
        return tok

    def parse(self):
        ops = []
        while self.peek() in ("Y", "Yg", "Ytw"):
            kind = self.take()
            self.take("(")
            arg = self.parse_atom()
            self.take(",")
            var = self.take()
            if not var.isidentifier() or var in _RESERVED:
                raise ExprError("%r is not a variable name" % var)
            if any(var == op[2] for op in ops):
                raise ExprError("variable %r is used twice" % var)
            self.take(")")
            ops.append((kind, arg, var))
        atom = self.parse_atom()
        if self.peek() is not None:
            raise ExprError("unexpected %r after the expression" % self.peek())
        return ops, atom

    def parse_atom(self):
        tok = self.take()
        if tok in ("(", ")", ","):
            raise ExprError("unexpected %r" % tok)
        if tok in ("vac", "vac+", "vac-", "1"):
            return ("vac", tok, None)
        if tok in ("Y", "Yg", "Ytw"):
            raise ExprError("nested operator %r: nesting is not supported"
                            % tok)
        if self.peek() == "(":
            self.take("(")
            num = self.take()
            self.take(")")
            try:
                idx = Fraction(num)
            except (ValueError, ZeroDivisionError) as exc:
                raise ExprError("bad mode index %r" % num) from exc
            return ("mode", tok, idx, self.parse_atom())
        return ("gen", tok, None)


def _eval_vector(node, V, W):
    """Evaluate a vector-valued atom, in V ('1', generators, modes) or W
    ('vac'); on an algebra id 'vac' is V's vacuum, and 'vac+' and 'vac-'
    are refused."""
    if node[0] == "vac":
        name = node[1]
        if W is None and name in ("vac+", "vac-"):
            raise ExprError("%s needs a twisted module id" % name)
        if name == "1" or W is None:
            return "V", Vec.basis(V.vac)
        vacs = W.basis(0)
        if name == "vac-":
            if len(vacs) < 2:
                raise ExprError("module has a one-dimensional vacuum")
            return "W", Vec.basis(vacs[1])
        return "W", Vec.basis(vacs[0])
    if node[0] == "gen":
        return "V", V.gen_vector(node[1])
    if node[0] == "mode":
        _, name, p, inner = node
        space, vec = _eval_vector(inner, V, W)
        gi = V.gen_named(name)
        try:
            N = lattice(p + V.gens[gi].weight - 1)
        except CyclotomicLevelError:
            return space, Vec.zero()      # no mode lives off the lattice
        action = V.gen_apply if space == "V" else W.gen_seed
        return space, linear(lambda key: action(gi, N, key), vec)
    raise ExprError("bad node %r" % (node,))


# the operator as the expression writes it, for each engine slot kind
_WRITTEN = {"alg": "Y", "tw": "Yg", "twist": "Ytw"}


def _validate_spaces(placed, atom_space):
    state = atom_space
    for _, kindop, _vec in reversed(placed):
        if state == "V" and kindop == "alg":
            continue
        if state == "V" and kindop == "twist":
            state = "W"
            continue
        if state == "W" and kindop == "tw":
            continue
        raise ExprError("operator %r cannot act on a %s-space state"
                        % (_WRITTEN[kindop], state))


def _expand(registry, model_id, text, halfwidth, as_json):
    kind, obj = registry.resolve(model_id)
    V = obj.algebra if kind == "algebra" else obj.V
    W = None if kind == "algebra" else obj
    ops, atom = _Parser(text).parse()
    space, vec = _eval_vector(atom, V, W)
    if not ops:
        raise ExprError("expression has no operator application")
    placed = []
    vars = []
    for i, (opkind, argnode, var) in enumerate(ops):
        aspace, avec = _eval_vector(argnode, V, W)
        if opkind == "Y":
            if aspace != "V":
                raise ExprError("Y takes an algebra state")
            placed.append((i, "alg", avec))
        elif opkind == "Yg":
            if W is None or aspace != "V":
                raise ExprError("Yg needs a twisted module id and an algebra "
                                "state")
            placed.append((i, "tw", avec))
        else:
            if W is None or aspace != "W":
                raise ExprError("Ytw needs a twisted module id and a module "
                                "state")
            placed.append((i, "twist", avec))
        vars.append(var)
    _validate_spaces(placed, space)
    box = Box.cube(len(vars), -Fraction(halfwidth), Fraction(halfwidth),
                   0 if W is None else W.log_bound)
    series = V.chain(tuple(vars), [(i, avec) for i, _k, avec in placed], vec) \
        if W is None else twist_chain(W, tuple(vars), placed, vec)
    terms = series.terms_in(box)
    if as_json:
        return json.dumps(series_to_json(terms, tuple(vars), box),
                          indent=2, sort_keys=True)
    return format_series(terms, tuple(vars))


def _cutoff(text) -> Fraction:
    """A --max-weight value; ValueError when it is no positive rational."""
    try:
        cutoff = Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None
    if cutoff <= 0:
        raise ValueError("--max-weight must be positive, got %s" % text)
    return cutoff


def _cmd_run(args, registry) -> int:
    cfg = SuiteConfig(model=args.model, suite=args.suite,
                      max_weight=_cutoff(args.max_weight),
                      halfwidth=args.window, log_bound=args.log_bound,
                      basis_order=args.seed_order)
    report = run_suite(cfg, registry)
    text = report.dumps()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    doc = report.to_json()
    print("%s: %d checks, %d passed, %d failed"
          % (cfg.suite, doc["summary"]["total"], doc["summary"]["passed"],
             doc["summary"]["failed"]))
    if not report.ok:
        for rec in report.records:
            if not rec.ok:
                print("%s %s %s %s" % ("ERROR" if rec.errored else "FAIL",
                                       rec.identity, rec.inputs,
                                       rec.first_mismatch))
                break
        return 2 if any(r.errored for r in report.records) else 1
    return 0


def _cmd_expand(args, registry) -> int:
    if args.window <= 0:
        raise ExprError("window must be positive")
    print(_expand(registry, args.model, args.expression, args.window,
                  args.json))
    return 0


def _cmd_decompose(args, registry) -> int:
    kind, obj = registry.resolve(args.model)
    if kind != "algebra":
        raise KeyError("decompose runs on an algebra model id")
    if args.automorphism not in obj.automorphisms:
        raise KeyError("unknown automorphism %r of %s (known: %s)"
                       % (args.automorphism, args.model,
                          ", ".join(sorted(obj.automorphisms))))
    jd = jordan_decompose(obj.automorphisms[args.automorphism],
                          _cutoff(args.max_weight))
    print(json.dumps(jd.to_json(), indent=2, sort_keys=True))
    return 0


def _cmd_dump_basis(args, registry) -> int:
    kind, obj = registry.resolve(args.model)
    space = obj.algebra if kind == "algebra" else obj
    keys = space.basis(_cutoff(args.max_weight), args.seed_order)
    for i, k in enumerate(keys):
        print("%d\t%s\t%s\t%s" % (i, space.deg(k), space.parity(k), k))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="vertextwist",
        description="Exact identity verification for twisted modules over "
                    "vertex superalgebras")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("--model", required=True)
    run.add_argument("--suite", required=True,
                     help="one of: %s" % ", ".join(SUITES))
    run.add_argument("--max-weight", default="2")
    run.add_argument("--window", type=int, default=4,
                     help="exponent window half-width")
    run.add_argument("--log-bound", type=int, default=None)
    run.add_argument("--report", default=None, help="write JSON report here")
    run.add_argument("--seed-order", default="weight-lex",
                     choices=("weight-lex", "weight-revlex"))
    run.set_defaults(func=_cmd_run)

    ex = sub.add_parser("expand", help="expand a vertex operator expression")
    ex.add_argument("model")
    ex.add_argument("expression")
    ex.add_argument("--window", type=int, default=4)
    ex.add_argument("--json", action="store_true")
    ex.set_defaults(func=_cmd_expand)

    de = sub.add_parser("decompose",
                        help="print Jordan data of an automorphism")
    de.add_argument("model")
    de.add_argument("automorphism")
    de.add_argument("--max-weight", default="2")
    de.set_defaults(func=_cmd_decompose)

    db = sub.add_parser("dump-basis", help="deterministic basis index dump")
    db.add_argument("model")
    db.add_argument("--max-weight", default="2")
    db.add_argument("--seed-order", default="weight-lex",
                    choices=("weight-lex", "weight-revlex"))
    db.set_defaults(func=_cmd_dump_basis)
    return ap


def main(argv=None) -> int:
    """Run one command; a configuration or parse error (a ValueError or a
    KeyError, an ExprError or MonomialOverflow among them) prints one error
    line, a KeyError by its message rather than its repr, and exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, Registry())
    except (ValueError, KeyError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print("error: %s" % (msg,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
