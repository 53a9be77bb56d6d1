"""From rule specifications to distributive laws, and the affineness check.

``rho_apply`` evaluates the plain law on one operator applied to tagged
arguments (pure / one observed transition / observed termination), with one
rule loop for both dialects: the desimone dialect only adds the stop every
state observes, and answers an observed termination with the stop alone.
``bar_rho_step`` is the composite law on behaviour-carrying arguments,
assembled literally from unit, pairing, argument distribution, rule
application and flattening, in that order; ``step_law`` folds it over a
closed term, the canonical model that checks the engine ``opmodel.step``.
``naturality_check`` enumerates the two evaluation orders of the affineness
square and reports the first input on which they disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .formalsum import (
    STOP,
    FormalSum,
    Obs,
    Pure,
    Step,
    belem_map,
    dist_b,
    dist_b0,
    dist_sigma,
    dist_sigma_star,
    fs_flatten,
    fs_map,
    fs_pair_join,
    fs_unit,
    payload_key,
)
from .terms import Leaf, Var, fold, graft


def _decompose(args):
    """Split argument positions into observed steps and observed stops, and
    bind the target variables: ``x_i`` to a pure argument's value, ``y_i``
    to an observed step's successor."""
    steps = {}
    stops = set()
    subst = {}
    for i, arg in enumerate(args, start=1):
        if isinstance(arg, Pure):
            subst[Var("x", i)] = Leaf(arg.value)
        elif isinstance(arg, Obs):
            if arg.elem is STOP:
                stops.add(i)
            elif isinstance(arg.elem, Step):
                steps[i] = arg.elem
                subst[Var("y", i)] = Leaf(arg.elem.target)
            else:
                raise TypeError(f"bad observation {arg.elem!r}")
        else:
            raise TypeError(f"argument {i} is not a B0 element: {arg!r}")
    return steps, stops, subst


def _rule_matches(rule, steps, stops):
    """Premise indices and labels must match the decomposition exactly."""
    trans = rule.trans_premises()
    if len(trans) != len(steps):
        return False
    for p in trans:
        step = steps.get(p.index)
        if step is None or step.label != p.label:
            return False
    term_indices = {p.index for p in rule.term_premises()}
    return term_indices == stops


def rho_apply(spec, op, args):
    """Evaluate the law on one operator over tagged arguments.

    Returns a formal sum of Step(label, target-term) / STOP where target
    terms carry the argument payloads in their leaves. A stop-observed
    argument binds no variable, so a target naming it raises
    ``RuleTargetError``.
    """
    args = tuple(args)
    spec.signature.check_arity(op, len(args))
    sr = spec.semiring
    steps, stops, subst = _decompose(args)
    entries = []
    if spec.dialect == "desimone":
        # every state observes termination: an observed one collapses the
        # result to the stop unit, and a `-> *` conclusion adds a stop
        # weight that boolean addition absorbs
        if stops:
            return fs_unit(sr, STOP)
        entries.append((STOP, sr.one))
    for rule in spec.rules_for(op):
        if not _rule_matches(rule, steps, stops):
            continue
        if rule.target is None:
            entries.append((STOP, rule.weight))
        else:
            entries.append((Step(rule.label, rule.instantiate(subst)), rule.weight))
    return FormalSum(sr, entries)


def bar_rho_step(spec, op, pairs):
    """One composite-law step on behaviour-carrying arguments.

    ``pairs`` is a list of (payload, behaviour) per argument position, the
    behaviour being a formal sum of Step/STOP over payloads. The pipeline is
    unit x id, pairing, argument distribution, rule application, flattening.
    """
    sr = spec.semiring
    arg_sums = [fs_pair_join(fs_unit(sr, x), behaviour) for x, behaviour in pairs]
    return _distribute_and_apply(spec, op, arg_sums)


def step_law(spec, term):
    """``opmodel.step``'s behaviour by structural recursion through the law.

    The oracle for ``step``: a fold whose node step runs ``bar_rho_step`` on
    the children's behaviours and grafts the two term layers flat.
    """

    def leaf(payload):
        raise TypeError(f"step_law needs a closed term, got {Leaf(payload)!r}")

    def node(n, behaviours):
        stepped = bar_rho_step(spec, n.op, list(zip(n.children, behaviours)))
        return fs_map(lambda e: belem_map(e, graft), stepped)

    return fold(term, leaf, node)


def _distribute_and_apply(spec, op, arg_sums):
    """Distribute sums of B0 elements over ``op``, apply the law to each
    resulting term and flatten."""
    combined = dist_sigma(spec.semiring, op, arg_sums)
    applied = fs_map(
        lambda flat: rho_apply(spec, flat.op, [c.payload for c in flat.children]),
        combined,
    )
    return fs_flatten(applied)


# --- the affineness square -------------------------------------------------

@dataclass
class NaturalityWitness:
    op: str
    args: tuple  # B0 elements over formal-sum payloads
    law_first: FormalSum
    args_first: FormalSum


@dataclass
class NaturalityResult:
    checked: int
    carrier: tuple
    witness: NaturalityWitness | None = None

    @property
    def passed(self):
        return self.witness is None


def leg_law_first(spec, op, args):
    """Apply the law over sum payloads, then distribute leaves and targets."""
    sr = spec.semiring
    applied = rho_apply(spec, op, args)
    distributed = fs_map(
        lambda e: dist_b(sr, belem_map(e, lambda t: dist_sigma_star(sr, t))),
        applied,
    )
    return fs_flatten(distributed)


def leg_args_first(spec, op, args):
    """Distribute each argument's sums first, then apply the law pointwise."""
    return _distribute_and_apply(spec, op, [dist_b0(spec.semiring, a) for a in args])


def _argument_sums(spec, carrier, include_nonaffine):
    """The formal sums over the carrier used as argument payloads.

    Weights are 0/1 (boolean) or multiples of 1/4 (rational). The sums of
    total weight one are the affine ones: all nonempty subsets, all
    distributions with denominator dividing 4 (point masses included).
    ``include_nonaffine`` adds the sub-unit sums, the empty sum included.
    """
    sr = spec.semiring
    grid = (0, 1) if sr.name == "boolean" else [Fraction(k, 4) for k in range(5)]
    out = []
    for weights in product(grid, repeat=len(carrier)):
        total = sr.sum(weights)
        if total == sr.one or (include_nonaffine and total < sr.one):
            out.append(FormalSum(sr, zip(carrier, weights)))
    return out


MAX_CARRIER = 3
MAX_NATURALITY_INPUTS = 1_000_000


def naturality_check(spec, carrier_size=2, include_nonaffine=False):
    """Compare the two legs of the affineness square over a small carrier.

    Arguments range over pure affine sums, observed steps into affine sums,
    and observed termination; include_nonaffine adds empty and sub-unit sums.
    Returns the first disagreement in enumeration order, if any. More than
    ``MAX_NATURALITY_INPUTS`` inputs are refused with ``ValueError``.
    """
    if not 1 <= carrier_size <= MAX_CARRIER:
        raise ValueError(f"carrier size must be between 1 and {MAX_CARRIER}")
    carrier = tuple(f"x{i}" for i in range(carrier_size))
    sums = sorted(_argument_sums(spec, carrier, include_nonaffine), key=payload_key)

    pool = [Pure(s) for s in sums]
    pool.extend(Obs(Step(label, s)) for label in spec.labels for s in sums)
    pool.append(Obs(STOP))
    sig = spec.signature
    # the pool holds a sum and a stop, so 64 argument positions already
    # give more inputs than the bound: past that only the digits grow
    inputs = sum(len(pool) ** min(sig.arity(op), 64) for op in sig.names())
    if inputs > MAX_NATURALITY_INPUTS:
        raise ValueError(
            f"naturality would check more than {MAX_NATURALITY_INPUTS:,} inputs"
        )

    checked = 0
    for op in sig.names():
        for args in product(pool, repeat=sig.arity(op)):
            checked += 1
            left = leg_law_first(spec, op, args)
            right = leg_args_first(spec, op, args)
            if left != right:
                return NaturalityResult(
                    checked=checked,
                    carrier=carrier,
                    witness=NaturalityWitness(op, args, left, right),
                )
    return NaturalityResult(checked=checked, carrier=carrier)
