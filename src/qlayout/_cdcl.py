"""Conflict-driven search core over 0/1 columns.

One loader (add_rows) takes the two kinds of rows a Model compiles to:
clauses, literal lists appended to the clause store in bulk, and
pseudo-Boolean rows (lits, coefs, b), sum(coef * lit) >= b with positive
coefficients. Clauses are propagated with two watched literals, set up by
the next search() past the literals false at the root (a set of the
negated level-0 trail); pseudo-Boolean rows are propagated by counting
(track the largest value the left side can still reach; when that dips
below the bound plus a literal's weight, the literal is forced). Conflicts
are analyzed to a first-unique-implication-point clause, which is learned
and drives non-chronological backjumping. Activity-ordered decisions with
phase saving, Luby restarts, and periodic deletion of inactive learned
clauses round out a standard small CDCL engine.

Everything is deterministic: ties break on index, no randomization.

Literal convention: literal 2*c asserts column c is 1, literal 2*c+1
asserts it is 0. A literal is "false" once its column is assigned the
other way: val[lit >> 1] == lit & 1, which an unassigned column (-1)
never meets. Reasons are encoded as non-negative clause indices or
-(pb_index + 2); -1 marks a decision.

Decision heap: `order` holds (-activity, column) entries, and
`heap_act[v]` is the activity of column v's newest entry while that entry
is still in the heap (None once it is popped). Invariant: every unassigned
column has an entry at its current activity, so the first popped entry
whose column is unassigned and whose activity is current names the free
column of highest activity, lowest index among equals. Other entries are
stale (their column is assigned, or its activity has since changed) and
are skipped when popped. A conflict bumps only assigned columns; a column
is pushed when it is unassigned, and only if its record differs from its
activity, so the heap holds no duplicate of a live entry.
"""

from __future__ import annotations

import heapq
import time
from itertools import groupby

_UNSET = -1


class Searcher:
    """Incremental CDCL over a fixed column set.

    Constraints may be added between search() calls (the search state is
    rewound to the root first). search() returns "sat", "unsat", or
    "timeout"; after "sat", model() holds a full 0/1 column list.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.val: list[int] = [_UNSET] * nvars
        self.saved: list[int] = [0] * nvars
        self.level: list[int] = [0] * nvars
        self.reason: list[int] = [-1] * nvars
        self.pos: list[int] = [0] * nvars
        self.act: list[float] = [0.0] * nvars
        self.act_inc = 1.0
        self.order: list[tuple[float, int]] = [(0.0, v) for v in range(nvars)]
        heapq.heapify(self.order)
        self.heap_act: list[float | None] = [0.0] * nvars
        self.trail: list[int] = []
        self.qhead = 0
        self.dl = 0
        self._seen: list[bool] = [False] * nvars  # conflict analysis scratch
        # clause store (original and learned) under two-literal watches
        self.clauses: list[list[int] | None] = []
        self.cl_act: list[float] = []
        self.cl_learned: list[bool] = []
        self.cl_inc = 1.0
        self.watches: list[list[int]] = [[] for _ in range(2 * nvars)]
        self.n_learned = 0
        # pseudo-Boolean rows under counting propagation
        self.pb_lits: list[list[int]] = []
        self.pb_coefs: list[list[int]] = []
        self.pb_b: list[int] = []
        self.pb_maxpos: list[int] = []
        self.pb_trig: list[int] = []  # b + largest coef: below it, scan the row
        self.occ: list[list[tuple[int, int]]] = [[] for _ in range(2 * nvars)]
        self.hard_unsat = False
        self._pending_pb: list[int] = []
        self._pending_cl: list[int] = []
        self._model: list[int] | None = None
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0

    # -- construction -------------------------------------------------------

    def add_rows(self, rows) -> None:
        """Register rows in order, as a Model compiles them: clauses (no
        repeated literal, no complementary pair; an empty one makes the
        search unsat) and PB tuples (lits, coefs, b) over distinct columns.
        Each run of clauses is copied in bulk, since the search reorders
        literals in place, and `_root_scan` watches them once the root-false
        literals are known. A PB row whose coefficients sum below b can
        never hold: it is not attached, and every search is unsat."""
        clauses = self.clauses
        start = len(clauses)
        for kind, run in groupby(rows, type):
            if kind is list:
                clauses += map(list.copy, run)
                continue
            for lits, coefs, b in run:
                if sum(coefs) < b:
                    self.hard_unsat = True
                else:
                    self._attach_pb(lits, coefs, b)
        n = len(clauses) - start
        self.cl_act += [0.0] * n
        self.cl_learned += [False] * n
        self._pending_cl += range(start, start + n)

    def _learn(self, lits: list[int]) -> int:
        """Store a learned clause, watched on its first two literals."""
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.cl_act.append(0.0)
        self.cl_learned.append(True)
        self.n_learned += 1
        if len(lits) >= 2:
            self.watches[lits[0]].append(ci)
            self.watches[lits[1]].append(ci)
        return ci

    def _attach_pb(self, lits: list[int], coefs: list[int], b: int) -> None:
        pi = len(self.pb_lits)
        self.pb_lits.append(lits)
        self.pb_coefs.append(coefs)
        self.pb_b.append(b)
        self.pb_trig.append(b + max(coefs))
        # count everything not currently false; undone pops re-add their coef
        mp = 0
        for lit, cf in zip(lits, coefs):
            if self.val[lit >> 1] != lit & 1:  # not false
                mp += cf
            self.occ[lit].append((pi, cf))
        self.pb_maxpos.append(mp)
        self._pending_pb.append(pi)

    # -- assignment plumbing -------------------------------------------------

    def _assign(self, lit: int, reason: int) -> None:
        v = lit >> 1
        value = 1 - (lit & 1)
        self.val[v] = value
        self.saved[v] = value
        self.level[v] = self.dl
        self.reason[v] = reason
        self.pos[v] = len(self.trail)
        self.trail.append(lit)

    def _flush_queue(self) -> None:
        maxpos, occ = self.pb_maxpos, self.occ
        while self.qhead < len(self.trail):
            for pi, cf in occ[self.trail[self.qhead] ^ 1]:
                maxpos[pi] -= cf
            self.qhead += 1

    def _backtrack(self, bl: int) -> None:
        self._flush_queue()
        trail, val, level = self.trail, self.val, self.level
        maxpos, occ = self.pb_maxpos, self.occ
        act, heap_act, order = self.act, self.heap_act, self.order
        push = heapq.heappush
        while trail and level[trail[-1] >> 1] > bl:
            lit = trail.pop()
            v = lit >> 1
            for pi, cf in occ[lit ^ 1]:
                maxpos[pi] += cf
            val[v] = _UNSET
            a = act[v]
            if heap_act[v] != a:
                heap_act[v] = a
                push(order, (-a, v))
        self.dl = bl
        self.qhead = len(trail)

    # -- propagation ---------------------------------------------------------

    def _scan_pb(self, pi: int) -> bool:
        """Force literals a tight row demands; False when already violated."""
        slack = self.pb_maxpos[pi] - self.pb_b[pi]
        if slack < 0:
            return False
        # queued-but-unapplied falsifications keep slack conservative here;
        # genuine violations surface when the queue applies their counts
        val = self.val
        for lit, cf in zip(self.pb_lits[pi], self.pb_coefs[pi]):
            if cf > slack and val[lit >> 1] == _UNSET:
                self._assign(lit, -(pi + 2))
        return True

    def _propagate(self) -> int | None:
        """Returns a reason code of a conflicting constraint, or None."""
        val, saved, level, reason, pos = (
            self.val, self.saved, self.level, self.reason, self.pos)
        trail, clauses, watches, occ = self.trail, self.clauses, self.watches, self.occ
        dl = self.dl
        qhead = start = self.qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            fl = lit ^ 1
            row = occ[fl]
            if row:
                maxpos, pb_b, pb_trig = self.pb_maxpos, self.pb_b, self.pb_trig
                conflict = None
                triggers = None
                for pi, cf in row:
                    mp = maxpos[pi] - cf
                    maxpos[pi] = mp
                    if mp < pb_trig[pi]:
                        if mp < pb_b[pi]:
                            if conflict is None:
                                conflict = pi
                        elif triggers is None:
                            triggers = [pi]
                        else:
                            triggers.append(pi)
                if conflict is not None:
                    return self._stop_propagation(qhead, start, -(conflict + 2))
                if triggers is not None:
                    for pi in triggers:
                        if not self._scan_pb(pi):
                            return self._stop_propagation(qhead, start, -(pi + 2))
            # two-watch pass over clauses watching the falsified literal
            ws = watches[fl]
            out = 0
            for i, ci in enumerate(ws):
                cl = clauses[ci]
                if cl is None:
                    continue  # deleted; drop the stale watch entry
                first = cl[0]
                if first == fl:  # keep the falsified watch in slot 1
                    first = cl[0] = cl[1]
                    cl[1] = fl
                fv = val[first >> 1]
                if fv == 1 - (first & 1):
                    ws[out] = ci
                    out += 1
                    continue  # satisfied by the other watch
                for j in range(2, len(cl)):
                    other = cl[j]
                    if val[other >> 1] != other & 1:  # not false: watch it
                        cl[1], cl[j] = other, fl
                        watches[other].append(ci)
                        break
                else:
                    # no other watch: the clause is unit or conflicting
                    ws[out] = ci
                    out += 1
                    if fv == _UNSET:
                        # assign `first` with this clause as its reason
                        v = first >> 1
                        value = 1 - (first & 1)
                        val[v] = value
                        saved[v] = value
                        level[v] = dl
                        reason[v] = ci
                        pos[v] = len(trail)
                        trail.append(first)
                    else:
                        del ws[out:i + 1]  # keep the unvisited watch entries
                        return self._stop_propagation(qhead, start, ci)
            del ws[out:]
        self.propagations += qhead - start
        self.qhead = qhead
        return None

    def _stop_propagation(self, qhead: int, start: int, code: int) -> int:
        """Count the literals propagated since `start`, then apply the PB
        counts of the queued rest, and return the conflict's reason code."""
        self.propagations += qhead - start
        self.qhead = qhead
        self._flush_queue()
        return code

    # -- conflict analysis ---------------------------------------------------

    def _reason_lits(self, code: int, skip_var: int, before: int) -> list[int]:
        """Falsified literals explaining a propagation or conflict; only
        assignments preceding trail position `before` qualify (later
        falsifications sit above the resolution frontier)."""
        lits = self.clauses[code] if code >= 0 else self.pb_lits[-code - 2]
        if code >= 0 and self.cl_learned[code]:
            self.cl_act[code] += self.cl_inc
        val, pos = self.val, self.pos
        out = []
        for lit in lits:
            v = lit >> 1
            # false: assigned, and to the value the literal denies
            if v == skip_var or val[v] != lit & 1 or pos[v] >= before:
                continue
            out.append(lit)
        return out

    def _analyze(self, code: int) -> tuple[list[int], int]:
        seen = self._seen  # all False between calls; cleared through bumped
        level, trail, dl = self.level, self.trail, self.dl
        learned: list[int] = []
        bumped: list[int] = []
        counter = 0
        for lit in self._reason_lits(code, -1, len(trail)):
            v = lit >> 1
            if not seen[v] and level[v] > 0:
                seen[v] = True
                bumped.append(v)
                if level[v] == dl:
                    counter += 1
                else:
                    learned.append(lit)
        idx = len(trail) - 1
        uip = None
        while True:
            while idx >= 0 and not seen[trail[idx] >> 1]:
                idx -= 1
            if idx < 0:
                raise AssertionError("conflict analysis lost the trail")
            lit = trail[idx]
            v = lit >> 1
            idx -= 1
            counter -= 1
            if counter == 0:
                uip = lit ^ 1
                break
            for rl in self._reason_lits(self.reason[v], v, self.pos[v]):
                rv = rl >> 1
                if not seen[rv] and level[rv] > 0:
                    seen[rv] = True
                    bumped.append(rv)
                    if level[rv] == dl:
                        counter += 1
                    else:
                        learned.append(rl)
        self.act_inc /= 0.95
        if self.act_inc > 1e100:
            self.act = [a * 1e-100 for a in self.act]
            self.act_inc *= 1e-100
            act, val = self.act, self.val
            self.order = [(-act[v], v) for v in range(self.nvars) if val[v] == _UNSET]
            heapq.heapify(self.order)
            self.heap_act = [act[v] if val[v] == _UNSET else None
                             for v in range(self.nvars)]
        # bumped columns are all assigned (each sits in a false reason
        # literal), so they are pushed when they are unassigned, not here
        act, inc = self.act, self.act_inc
        for v in bumped:
            seen[v] = False
            act[v] += inc
        self.cl_inc /= 0.999
        bj = max((self.level[l >> 1] for l in learned), default=0)
        return [uip] + learned, int(bj)

    # -- learned-clause housekeeping ------------------------------------------

    def _reduce_db(self) -> None:
        """Drop the least active half of the learned clauses."""
        cands = []
        for ci, cl in enumerate(self.clauses):
            if cl is None or not self.cl_learned[ci] or len(cl) <= 2:
                continue
            v = cl[0] >> 1
            if self.val[v] != _UNSET and self.reason[v] == ci:
                continue  # locked: currently the reason of its first watch
            cands.append((self.cl_act[ci], ci))
        cands.sort()
        for _, ci in cands[: len(cands) // 2]:
            self.clauses[ci] = None  # watch lists drop stale refs lazily
            self.n_learned -= 1
        if self.cl_inc > 1e100:
            scale = 1e-100
            self.cl_act = [a * scale for a in self.cl_act]
            self.cl_inc *= scale

    # -- main loop -----------------------------------------------------------

    def _root_scan(self) -> bool:
        """Propagate pending rows at the root; False means unsat.

        Pending clauses may carry literals false at level 0: the set
        `false`, grown with the trail during the scan. A clause with none
        keeps its order and watches its first two literals. A clause with
        some is reordered live literals first, root-false ones last, so its
        two watch slots hold live literals and the watch loop skips the
        root-false tail; one left with a single live literal asserts it (the
        clause is not reordered then, nor watched)."""
        for pi in self._pending_pb:
            if not self._scan_pb(pi) or self._propagate() is not None:
                return False
        clauses, watches, trail = self.clauses, self.watches, self.trail
        false = {lit ^ 1 for lit in trail} if self._pending_cl else None
        for ci in self._pending_cl:
            cl = clauses[ci]
            live = cl if false.isdisjoint(cl) else [l for l in cl if l not in false]
            if len(live) >= 2:
                if live is not cl:
                    cl[:] = live + [l for l in cl if l in false]
                watches[cl[0]].append(ci)
                watches[cl[1]].append(ci)
                continue
            if not live:
                return False
            if self.val[live[0] >> 1] == _UNSET:
                known = len(trail)
                self._assign(live[0], ci)
                if self._propagate() is not None:
                    return False
                false.update(lit ^ 1 for lit in trail[known:])
        self._pending_pb = []
        self._pending_cl = []
        return True

    def boost(self, var: int, amount: float = 1.0,
              phase: int | None = None) -> None:
        """Raise a variable's decision priority; optionally seed its phase.

        A pre-search hint only: callers that know which columns drive reward
        (objective columns, say) can steer early decisions toward them.
        """
        if not (0 <= var < self.nvars):
            raise ValueError(f"variable {var} out of range")
        a = self.act[var] = self.act[var] + amount
        self.heap_act[var] = a
        heapq.heappush(self.order, (-a, var))
        if phase is not None:
            self.saved[var] = 1 if phase else 0

    def _decide(self) -> None:
        order, val, act, heap_act = self.order, self.val, self.act, self.heap_act
        pop = heapq.heappop
        while order:
            a, v = pop(order)
            if heap_act[v] == -a:
                heap_act[v] = None
            if val[v] == _UNSET and -a == act[v]:
                break
        else:
            raise AssertionError("decision heap lost an unassigned column")
        self.dl += 1
        self.decisions += 1
        self._assign(2 * v + (1 - self.saved[v]), -1)

    @staticmethod
    def _luby(i: int) -> int:
        # 1-based Luby sequence 1 1 2 1 1 2 4 ...
        while True:
            k = i.bit_length()
            if i == (1 << k) - 1:
                return 1 << (k - 1)
            i = i - (1 << (k - 1)) + 1

    def search(self, deadline: float | None = None) -> str:
        if self.hard_unsat:
            return "unsat"
        # the clock is also read every 256 conflicts below; a call past its
        # deadline stops here, however few conflicts it would take
        if deadline is not None and time.monotonic() >= deadline:
            return "timeout"
        self._backtrack(0)
        if not self._root_scan():
            return "unsat"
        restart_idx = 1
        budget = 128 * self._luby(restart_idx)
        since_restart = 0
        reduce_at = 2000
        while True:
            code = self._propagate()
            if code is not None:
                self.conflicts += 1
                since_restart += 1
                if self.dl == 0:
                    return "unsat"
                lits, bj = self._analyze(code)
                self._backtrack(bj)
                if len(lits) > 1:
                    # watch a literal of the backjump level alongside the
                    # asserted one, so backtracking unassigns both watches
                    for j in range(1, len(lits)):
                        if self.level[lits[j] >> 1] == bj:
                            lits[1], lits[j] = lits[j], lits[1]
                            break
                ci = self._learn(lits)
                self._assign(lits[0], ci)
                if self.conflicts % 256 == 0 and deadline is not None \
                        and time.monotonic() > deadline:
                    return "timeout"
                if self.n_learned >= reduce_at:
                    self._reduce_db()
                    reduce_at += 500
                if since_restart >= budget:
                    restart_idx += 1
                    budget = 128 * self._luby(restart_idx)
                    since_restart = 0
                    self._backtrack(0)
                continue
            if len(self.trail) == self.nvars:
                self._model = self.val[:]
                return "sat"
            self._decide()

    def model(self) -> list[int]:
        if self._model is None:
            raise RuntimeError("no model captured")
        return self._model
