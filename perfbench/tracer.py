"""Spans around the package's public functions, for the traced run only.

``install`` rebinds every public function the benchmark times, in every
``fogtrust`` module that holds a binding to it (``scalar_mult`` is imported
by name into ``keys``, ``signing`` and ``ring``; ``run_*_scenario`` into
``cli``), and returns a handle whose ``restore`` puts each original object
back and checks it by identity. Nothing here touches the package's source.

A span has a name, start, end, parent span and request id; spans of one
handshake, exchange, audit, contract call or CLI invocation share the
request id the workload sets. Spans stay in memory (up to ``SPAN_CAP``,
counted past that) and are written out when the run ends. Every span also
feeds running totals per name: calls, time, and self time, which is the
span's time minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPAN_CAP = 200_000
RING_SIZES = (2, 8, 32)
POLICIES = ("random", "weighted", "bibd")
# Public contract operations. The first seven are the ones the workloads
# call; the rest are listed so the full report covers every public op.
LEDGER_OPS = ("iot_registration", "iot_add_funds", "fog_registration",
              "oracle_registration", "iot_fog_payment", "fog_reward",
              "fog_penalize", "iot_withdraw_funds", "iot_remove",
              "fog_withdraw_funds", "fog_remove")
PROTOCOL_FNS = ("mutual_authenticate", "service_exchange", "service_audit",
                "select_ring", "submit_verdict")


class Tracer:
    """In-memory span recorder with per-name totals."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.totals = {}    # name -> [calls, seconds, self seconds]
        self.counts = {}    # name -> number (counters that are not spans)
        self.request = 0
        self._stack = []    # open frames: [span id, start, child seconds]
        self._next_id = 0

    def count(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def enter(self):
        self._next_id += 1
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame, name: str):
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span %s closed out of order" % name)
        span_id, start, child = frame
        elapsed = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += elapsed
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[0] if parent else 0,
                               self.request, name, start, end))
        else:
            self.dropped += 1

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def ms(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2] * 1e3

    def write_spans(self, path: str):
        with open(path, "w", encoding="ascii") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "request": request, "name": name,
                                         "start": start, "end": end}) + "\n")


def _spanned(tracer: Tracer, fn, name_of, before=None):
    """Wrap ``fn`` in a span named by ``name_of(state, args, result, exc)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args) if before is not None else None
        frame = tracer.enter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(frame, name_of(state, args, None, exc))
            raise
        tracer.exit(frame, name_of(state, args, result, None))
        return result

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _spanned_generator(tracer: Tracer, fn, name: str):
    """Each step of a generator function becomes one span, so spans nest
    even though the caller runs its own code between steps."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            frame = tracer.enter()
            try:
                item = next(inner)
            except StopIteration:
                tracer.exit(frame, name)
                return
            except BaseException:
                tracer.exit(frame, name)
                raise
            tracer.exit(frame, name)
            yield item

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


class Patches:
    """Rebinds functions and methods; ``restore`` undoes every rebinding."""

    def __init__(self):
        self.applied = []   # (owner, attribute, original)

    def function(self, original, wrapper):
        """Replace every module-level binding of ``original`` in fogtrust."""
        owners = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "fogtrust"
                                      or module_name.startswith("fogtrust.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    owners.append((module, attribute))
        if not owners:
            raise RuntimeError("no binding of %r found" % original)
        for owner, attribute in owners:
            self.applied.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)

    def method(self, cls, attribute, wrapper_of):
        original = vars(cls)[attribute]
        self.applied.append((cls, attribute, original))
        setattr(cls, attribute, wrapper_of(original))

    def restore(self):
        for owner, attribute, original in reversed(self.applied):
            setattr(owner, attribute, original)
        for owner, attribute, original in self.applied:
            current = vars(owner)[attribute]
            if current is not original:
                raise RuntimeError("%s.%s was not restored"
                                   % (getattr(owner, "__name__", owner), attribute))
        self.applied = []


def _fixed(name):
    return lambda state, args, result, exc: name


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's public functions; returns the restore handle."""
    from fogtrust import aead, cli, curve, keys, ledger, protocol, ring
    from fogtrust import scheduling, signing, simulation
    from fogtrust.errors import DecryptionFailed

    patches = Patches()
    built_coordinates = set()

    # -- curve: classify each multiplication by the table state around it.
    # getattr keeps the traced run working if a later cache keeps tables
    # elsewhere; every non-generator call then reads as a ladder.
    def has_table(point) -> bool:
        return getattr(point, "_table", None) is not None

    def mult_before(args):
        point = args[1]
        return point is curve.GENERATOR, has_table(point)

    def mult_name(state, args, result, exc):
        fixed, had_table = state
        if fixed:
            return "curve.scalar_mult.fixed"
        if had_table:
            return "curve.scalar_mult.table"
        point = args[1]
        if has_table(point):
            key = (point.x, point.y)
            if key in built_coordinates:
                tracer.count("curve.table_build.duplicate")
            built_coordinates.add(key)
            return "curve.table_build"
        return "curve.scalar_mult.ladder"

    patches.function(curve.scalar_mult,
                     _spanned(tracer, curve.scalar_mult, mult_name, mult_before))
    patches.function(curve.point_add,
                     _spanned(tracer, curve.point_add, _fixed("curve.point_add")))

    # -- keys and signing
    for module, name in ((keys, "derive_public"), (keys, "shared_secret"),
                         (signing, "sign"), (signing, "recover")):
        original = getattr(module, name)
        layer = module.__name__.rsplit(".", 1)[1]
        patches.function(original, _spanned(tracer, original,
                                            _fixed("%s.%s" % (layer, name))))

    # -- ring: by ring size
    def ring_sign_name(state, args, result, exc):
        return "ring.ring_sign.n%d" % len(args[1])

    def ring_verify_name(state, args, result, exc):
        members = getattr(args[1], "ring", ())
        if exc is None:
            tracer.count("ring.links", len(members))
        return "ring.ring_verify.n%d" % len(members)

    patches.function(ring.ring_sign,
                     _spanned(tracer, ring.ring_sign, ring_sign_name))
    patches.function(ring.ring_verify,
                     _spanned(tracer, ring.ring_verify, ring_verify_name))

    # -- aead
    def encrypt_name(state, args, result, exc):
        tracer.count("aead.encrypt.bytes", len(args[1]))
        return "aead.encrypt"

    def decrypt_name(state, args, result, exc):
        if isinstance(exc, DecryptionFailed):
            tracer.count("aead.decrypt.rejected")
        return "aead.decrypt"

    patches.function(aead.encrypt, _spanned(tracer, aead.encrypt, encrypt_name))
    patches.function(aead.decrypt, _spanned(tracer, aead.decrypt, decrypt_name))

    # -- ledger: accepted, or rejected by error class
    def ledger_op(op):
        def name_of(state, args, result, exc):
            if exc is None:
                tracer.count("ledger.%s.accepted" % op)
            else:
                tracer.count("ledger.%s.rejected.%s" % (op, type(exc).__name__))
            return "ledger.%s" % op
        return lambda original: _spanned(tracer, original, name_of)

    for op in LEDGER_OPS:
        patches.method(ledger.Ledger, op, ledger_op(op))

    # -- protocol
    def audit_name(state, args, result, exc):
        if exc is None:
            tracer.count("protocol.audits.passed" if result.passed
                         else "protocol.audits.failed")
        return "protocol.service_audit"

    for name in PROTOCOL_FNS:
        original = getattr(protocol, name)
        name_of = audit_name if name == "service_audit" \
            else _fixed("protocol.%s" % name)
        patches.function(original, _spanned(tracer, original, name_of))

    # -- scheduling: by the scheduler's policy
    def by_policy(prefix):
        def name_of(state, args, result, exc):
            return "%s.%s" % (prefix, args[0].policy.value)
        return lambda original: _spanned(tracer, original, name_of)

    patches.method(scheduling.Scheduler, "next_cluster",
                   by_policy("scheduling.next_cluster"))
    patches.method(scheduling.Scheduler, "eject", by_policy("scheduling.eject"))
    patches.method(scheduling.Scheduler, "record_outcome",
                   lambda original: _spanned(tracer, original,
                                             _fixed("scheduling.record_outcome")))

    # -- simulation: trials by policy; attempts feed useful_audit_ratio
    def trial(kind):
        def before(args):
            return (tracer.calls("ledger.fog_reward")
                    + tracer.calls("ledger.fog_penalize"))

        def name_of(verdicts_before, args, result, exc):
            policy = args[0].policy.value
            if exc is None:
                verdicts = (tracer.calls("ledger.fog_reward")
                            + tracer.calls("ledger.fog_penalize")
                            - verdicts_before)
                if kind == "cost":
                    attempts = result
                else:
                    # steps recorded before the zero padding that follows
                    # the last expulsion
                    live = result.live_fogs
                    attempts = live.index(0) + 1 if 0 in live else len(live)
                tracer.count("simulation.verdicts.%s" % policy, verdicts)
                tracer.count("simulation.attempts.%s" % policy, attempts)
            return "simulation.run_%s_trial.%s" % (kind, policy)

        original = getattr(simulation, "run_%s_trial" % kind)
        return original, _spanned(tracer, original, name_of, before)

    for kind in ("cost", "state"):
        patches.function(*trial(kind))
    patches.function(simulation.run_cost_scenario,
                     _spanned(tracer, simulation.run_cost_scenario,
                              _fixed("simulation.run_cost_scenario")))
    patches.function(simulation.run_state_scenario,
                     _spanned_generator(tracer, simulation.run_state_scenario,
                                        "simulation.run_state_scenario"))

    # -- cli
    def simulate_name(state, args, result, exc):
        return "cli.cmd_simulate.%s" % args[0]

    patches.function(cli.cmd_simulate,
                     _spanned(tracer, cli.cmd_simulate, simulate_name))
    return patches


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    t = tracer
    out = {}

    def timing(name, with_self=False):
        out[name + ".calls"] = (t.calls(name), "count")
        out[name + ".ms"] = (t.ms(name), "ms")
        if with_self:
            out[name + ".self_ms"] = (t.self_ms(name), "ms")

    for kind in ("fixed", "table", "ladder"):
        timing("curve.scalar_mult." + kind)
    timing("curve.table_build")
    out["curve.table_build.duplicate"] = (
        t.counts.get("curve.table_build.duplicate", 0), "count")
    multiplications = sum(t.calls("curve.scalar_mult." + kind)
                          for kind in ("fixed", "table", "ladder"))
    multiplications += t.calls("curve.table_build")
    with_table = (t.calls("curve.scalar_mult.fixed")
                  + t.calls("curve.scalar_mult.table"))
    out["curve.table_hit_ratio"] = (
        with_table / multiplications if multiplications else 0.0, "ratio")
    timing("curve.point_add")

    for name in ("keys.derive_public", "keys.shared_secret",
                 "signing.sign", "signing.recover"):
        timing(name)

    for size in RING_SIZES:
        timing("ring.ring_sign.n%d" % size)
    for size in RING_SIZES:
        timing("ring.ring_verify.n%d" % size)
    verify_ms = sum(t.ms("ring.ring_verify.n%d" % size) for size in RING_SIZES)
    links = t.counts.get("ring.links", 0)
    out["ring.link_ms"] = (verify_ms / links if links else 0.0, "ms")

    timing("aead.encrypt")
    out["aead.encrypt.bytes"] = (t.counts.get("aead.encrypt.bytes", 0), "bytes")
    timing("aead.decrypt")
    out["aead.decrypt.rejected"] = (t.counts.get("aead.decrypt.rejected", 0),
                                    "count")

    for op in LEDGER_OPS:
        name = "ledger." + op
        out[name + ".accepted"] = (t.counts.get(name + ".accepted", 0), "count")
        out[name + ".ms"] = (t.ms(name), "ms")
        out[name + ".self_ms"] = (t.self_ms(name), "ms")
    for name in sorted(t.counts):
        if name.startswith("ledger.") and ".rejected." in name:
            out[name] = (t.counts[name], "count")

    for name in PROTOCOL_FNS:
        timing("protocol." + name, with_self=True)
    out["protocol.audits.passed"] = (t.counts.get("protocol.audits.passed", 0),
                                     "count")
    out["protocol.audits.failed"] = (t.counts.get("protocol.audits.failed", 0),
                                     "count")

    for policy in POLICIES:
        timing("scheduling.next_cluster." + policy)
        timing("scheduling.eject." + policy)
    out["scheduling.record_outcome.ms"] = (t.ms("scheduling.record_outcome"),
                                           "ms")

    for kind in ("cost", "state"):
        for policy in POLICIES:
            timing("simulation.run_%s_trial.%s" % (kind, policy), with_self=True)
    for policy in POLICIES:
        attempts = t.counts.get("simulation.attempts." + policy, 0)
        verdicts = t.counts.get("simulation.verdicts." + policy, 0)
        out["simulation.useful_audit_ratio." + policy] = (
            verdicts / attempts if attempts else 0.0, "ratio")

    for scenario in ("cost", "state"):
        name = "cli.cmd_simulate." + scenario
        out[name + ".ms"] = (t.ms(name), "ms")
        out[name + ".self_ms"] = (t.self_ms(name), "ms")
    return out
