"""Packed-word execution core: whole states as single integers.

The reference engine (:mod:`repro.engine.explorer`) searches rich
``NetworkState`` values; this module is the fast default tier.  One
canonical state is a **single Python integer** laid out in fixed-width
bit fields derived from the dense ids of
:class:`~repro.engine.codec.InstanceCodec` —

    ``[ π digits | announced digits | ρ digits | per-channel queues ]``

where each route digit is ``rb = bit_length(n_routes - 1)`` bits and a
channel queue is a ``(length, slot₀, slot₁, …)`` field of
``lb + slots·rb`` bits (front of the FIFO in slot 0, unused slots
zero).  Three consequences drive the speed:

* **Successor generation is integer addition.**  For a given channel
  the effect of one ``(f, g)`` read combo depends only on the queue
  field and ρ digit, so it is memoized as a single *delta* — the
  packed difference of the post-read word minus the pre-read word.
  Applying an activation entry sums the per-channel deltas, adds a
  π/announcement correction, and adds precomputed append constants for
  the out-channels.  Canonicalization (destination in-channels cleared,
  reliable-A collapse, ext-class projection of
  :mod:`repro.engine.reduction`) is folded into the write constants,
  so every generated word is already canonical.
* **The frontier is flat arrays.**  States live in a list of ints
  keyed by an int→index dict; adjacency is a CSR triple of
  ``array('q')`` buffers, which the fairness passes scan without
  touching per-state objects.
* **Search-time symmetry quotienting.**  The instance's automorphism
  group (:func:`repro.core.canonical.automorphisms`) is compiled into
  index permutations on packed words; every successor is replaced by
  the lexicographic minimum of its orbit (images summed from per-node
  lookup tables, see :class:`_Layout`) before dedup, so symmetric
  interleavings merge *during* search and compound with the ample-set
  reduction.  Fair-cycle detection on the quotient graph is done on
  the **threaded** (permutation-annotated) product — a plain quotient
  SCC check is unsound for fairness (Emerson–Sistla): each quotient
  edge carries the group element relating the raw successor to its
  stored representative, and Tarjan runs over ``(state, thread)``
  pairs whose realizations are exactly the concrete reachable states.
  Witnesses are built by realizing a threaded cycle and conjugating it
  onto the prefix endpoint, so they replay against the original
  instance labels.

For instances with a trivial automorphism group (e.g. fig7) the search
explores *exactly* the reference engine's graph in the reference
engine's order — same states, same truncation counts, same checkpoint
early exits, same Tarjan-order witness selection — so verdicts, flags,
counts, and witnesses are bit-identical; the differential suite pins
this.  With a nontrivial group the quotient explores fewer states but
provably preserves the verdict, and ``complete`` follows the same
monotone contract the ample reduction already has versus the unreduced
search: the quotient may certify *more* (its mid-search checkpoints
never exit early, and covering the quotient covers the whole space),
never less.  Truncation-zeroness is group-equivariant and the quotient
is never larger than the concrete graph, so ``packed.complete >=
reference.complete`` always holds.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array

from ..core.canonical import automorphisms
from ..core.paths import EPSILON
from ..core.spp import SPPInstance
from ..models.dimensions import MessageCount, NeighborScope, Reliability
from ..models.taxonomy import CommunicationModel
from ..obs import active as _telemetry
from .activation import INFINITY
from .codec import apply_packed, codec_for
from .explorer import _shared_layout
from .reduction import (
    absorption_allowed,
    representative_tables,
    validate_reduction,
)

__all__ = ["PackedExplorer"]

_NO_DROPS = frozenset()


class _PackedOp:
    """One behaviourally distinct activation entry at a queue-length
    signature, with everything the hot loop and the fairness passes
    need precomputed: which per-channel combo index applies, how many
    messages it consumes, and its fairness bitmasks."""

    __slots__ = (
        "uid",
        "entry",
        "choices",
        "unread",
        "takes",
        "attempts_mask",
        "dropped_mask",
        "delivered_mask",
        "full_flag",
        "nid",
    )

    def __init__(self, uid, entry, choices, unread, takes, attempts_mask,
                 dropped_mask, delivered_mask, full_flag, nid):
        self.uid = uid
        self.entry = entry
        self.choices = choices
        self.unread = unread
        self.takes = takes
        self.attempts_mask = attempts_mask
        self.dropped_mask = dropped_mask
        self.delivered_mask = delivered_mask
        self.full_flag = full_flag
        self.nid = nid


class _Layout:
    """The word layout of one ``(instance, reduction, queue_bound)`` and
    the automorphism group compiled for it.

    Nothing here depends on the model, so the packed searches of one
    fan-out share one layout (:func:`repro.engine.explorer._shared_layout`):
    the bit offsets and masks, the stored-digit tables ``wval``, the
    fused preference and append tables, the node masks; the group's
    node/channel/route permutations, per-channel digit translations,
    composition and inverse tables; and the memos every search may
    share — channel-mask images, the orbit memo (raw word →
    ``(representative, τ)``) and the image tables below.

    **Orbit images by table lookup.**  σ_g sends each field of a word to
    a disjoint field, and digit 0 to 0 (ε is route 0 and is its own
    representative on every channel), so σ_g(word) = Σ_k σ_g(word & M_k)
    for any partition of the word into masks M_k.  ``parts`` partitions
    it by node — a node's π and announced digits plus the ρ digit and
    queue field of each of its in-channels — and ``images[g - 1]`` maps
    a nonzero sub-word to its image under σ_g, filled on first sight by
    the digit-by-digit :meth:`_image`.  An orbit is then |G| − 1 sums of
    a few dict lookups.
    """

    def __init__(self, instance: SPPInstance, reduction: str,
                 queue_bound: int) -> None:
        codec = codec_for(instance)
        self.n_nodes = n_nodes = len(codec.nodes)
        self.n_channels = n_channels = len(codec.channels)
        n_routes = len(codec.routes)
        # Write-time canonicalization: stored queue/ρ digits are always
        # ext-class representatives (the identity without reduction), so
        # projection never needs a post-hoc pass — wval[cid][r] is the
        # digit actually written when route r lands on channel cid.
        if reduction == "ample":
            self.wval = wval = representative_tables(instance)
        else:
            ident = tuple(range(n_routes))
            self.wval = wval = tuple(ident for _ in codec.channels)

        # ---- bit layout -------------------------------------------------
        self.rb = rb = max(1, (n_routes - 1).bit_length())
        slots = queue_bound + 1  # one transient slot beyond the bound
        self.lb = lb = slots.bit_length()
        cw = lb + slots * rb
        self.rmask = rmask = (1 << rb) - 1
        self.lmask = (1 << lb) - 1
        self.fmask = fmask = (1 << cw) - 1
        self.pi_off = pi_off = tuple(nid * rb for nid in range(n_nodes))
        self.ann_off = ann_off = tuple(
            (n_nodes + nid) * rb for nid in range(n_nodes)
        )
        self.rho_off = rho_off = tuple(
            (2 * n_nodes + cid) * rb for cid in range(n_channels)
        )
        q_base = (2 * n_nodes + n_channels) * rb
        self.q_off = q_off = tuple(
            q_base + cid * cw for cid in range(n_channels)
        )
        self.pimask = (1 << (n_nodes * rb)) - 1
        self.ann_dest_off = ann_off[codec.dest_id]
        self.total_bound = queue_bound * max(1, n_channels)

        recv = tuple(
            codec.node_id[channel[1]] for channel in codec.channels
        )
        self.dest_in = dest_in = set(codec.dest_in)

        # Fused preference table: pe[cid][r] is the preference position
        # the channel's receiver assigns to the feasible extension of r.
        self.pe = tuple(
            tuple(
                codec.pref_index[recv[cid]][codec.ext[cid][r]]
                for r in range(n_routes)
            )
            for cid in range(n_channels)
        )
        self.no_choice = codec.no_choice
        # route_by_pref padded so position == no_choice yields ε.
        self.rbp = tuple(
            tuple(codec.route_by_pref[nid])
            + (0,) * (codec.no_choice + 1 - len(codec.route_by_pref[nid]))
            for nid in range(n_nodes)
        )
        self.pin_factor = tuple(
            (1 << pi_off[nid]) + (1 << ann_off[nid]) for nid in range(n_nodes)
        )
        self.in_qmask = tuple(
            sum(fmask << q_off[cid] for cid in codec.in_ch[nid])
            for nid in range(n_nodes)
        )
        self.out_eff = out_eff = tuple(
            tuple(cid for cid in codec.out_ch[nid] if cid not in dest_in)
            for nid in range(n_nodes)
        )
        # Append constants: adding ap[ocid][route][ln] to a word appends
        # the (projected) route to out-channel ocid currently ln deep.
        # cv[ocid][route] is the collapsed (length-1) replacement field.
        self.ap = tuple(
            tuple(
                tuple(
                    (1 + (wval[ocid][r] << (lb + ln * rb))) << q_off[ocid]
                    for ln in range(slots)
                )
                for r in range(n_routes)
            )
            for ocid in range(n_channels)
        )
        self.cv = tuple(
            tuple(
                ((wval[ocid][r] << lb) | 1) << q_off[ocid]
                for r in range(n_routes)
            )
            for ocid in range(n_channels)
        )

        # Node-local masks: every bit a node's menu expansion reads —
        # its π digit, in-channel queue fields and ρ digits, and the
        # out-channel queue fields touched by an announcement.  Two
        # global states agreeing under the mask share the exact same
        # successor deltas, so expansions memoize on the masked word.
        # ``parts`` is the node partition the orbit images sum over.
        node_masks = []
        parts = []
        for nid in range(n_nodes):
            own = (rmask << pi_off[nid]) | (rmask << ann_off[nid])
            mask = rmask << pi_off[nid]
            for cid in codec.in_ch[nid]:
                field = (fmask << q_off[cid]) | (rmask << rho_off[cid])
                mask |= field
                own |= field
            for ocid in out_eff[nid]:
                mask |= fmask << q_off[ocid]
            node_masks.append(mask)
            parts.append(own)
        self.node_mask = tuple(node_masks)
        self.parts = tuple(parts)
        # The forced step reads only a node's in-channel queue fields and
        # ρ digits: ``in_mask`` pairs each node that can absorb (not the
        # destination, at least one in-channel) with that mask.
        self.in_mask = tuple(
            (nid, sum((fmask << q_off[cid]) | (rmask << rho_off[cid])
                      for cid in codec.in_ch[nid]))
            for nid in range(n_nodes)
            if nid != codec.dest_id and codec.in_ch[nid]
        )

        self.relevant_cids = tuple(
            cid for cid in range(n_channels) if cid not in dest_in
        )
        self.relevant_mask = sum(1 << cid for cid in self.relevant_cids)

        self._compile_group(instance, codec)
        self.images = tuple({} for _ in range(1, self.size))
        self.mask_img: dict = {}
        self.orbits: dict = {}

    def _compile_group(self, instance: SPPInstance, codec) -> None:
        """The automorphism group compiled for this word layout."""
        group = automorphisms(instance)
        self.size = size = len(group)
        if size == 1:
            self.node_perms = self.chperms = self.rperms = self.strans = ()
            self.comp_tab = ((0,),)
            self.inv_tab = (0,)
            return
        n_routes = len(codec.routes)
        n_channels = len(codec.channels)
        wval = self.wval
        nperms = []
        chperms = []
        rperms = []
        strans = []
        for sigma in group:
            nperm = tuple(codec.node_id[sigma[n]] for n in codec.nodes)
            chperm = tuple(
                codec.channel_id[(sigma[c[0]], sigma[c[1]])]
                for c in codec.channels
            )
            rperm = tuple(
                0 if r == EPSILON
                else codec.route_id[tuple(sigma[hop] for hop in r)]
                for r in codec.routes
            )
            # Stored digits are channel-local representatives, so the
            # image digit is re-projected for the image channel.
            st = tuple(
                tuple(wval[chperm[cid]][rperm[r]] for r in range(n_routes))
                for cid in range(n_channels)
            )
            nperms.append(nperm)
            chperms.append(chperm)
            rperms.append(rperm)
            strans.append(st)
        key = {perm: g for g, perm in enumerate(nperms)}
        n_nodes = len(codec.nodes)
        comp_tab = []
        for a in range(size):
            row = []
            pa = nperms[a]
            for b in range(size):
                pb = nperms[b]
                row.append(key[tuple(pa[pb[i]] for i in range(n_nodes))])
            comp_tab.append(tuple(row))
        inv = [0] * size
        for g, perm in enumerate(nperms):
            ip = [0] * n_nodes
            for i, j in enumerate(perm):
                ip[j] = i
            inv[g] = key[tuple(ip)]
        self.node_perms = tuple(nperms)
        self.chperms = tuple(chperms)
        self.rperms = tuple(rperms)
        self.strans = tuple(strans)
        self.comp_tab = tuple(comp_tab)
        self.inv_tab = tuple(inv)

    def _image(self, word: int, g: int) -> int:
        """σ_g applied to a packed word (result is canonical again),
        digit by digit: the filler of the image tables."""
        rmask = self.rmask
        lmask = self.lmask
        fmask = self.fmask
        lb = self.lb
        rb = self.rb
        nperm = self.node_perms[g]
        chperm = self.chperms[g]
        rperm = self.rperms[g]
        strans = self.strans[g]
        pi_off = self.pi_off
        ann_off = self.ann_off
        rho_off = self.rho_off
        q_off = self.q_off
        out = 0
        for nid in range(self.n_nodes):
            tgt = nperm[nid]
            out |= rperm[(word >> pi_off[nid]) & rmask] << pi_off[tgt]
            out |= rperm[(word >> ann_off[nid]) & rmask] << ann_off[tgt]
        for cid in range(self.n_channels):
            tgt = chperm[cid]
            st = strans[cid]
            out |= st[(word >> rho_off[cid]) & rmask] << rho_off[tgt]
            fld = (word >> q_off[cid]) & fmask
            ln = fld & lmask
            if ln:
                nf = ln
                vals = fld >> lb
                pos = lb
                for _ in range(ln):
                    nf |= st[vals & rmask] << pos
                    vals >>= rb
                    pos += rb
                out |= nf << q_off[tgt]
        return out

    def orbit(self, raw: int) -> tuple:
        """(orbit representative, τ) with rep = σ_τ(raw), the lowest τ
        on ties; stored in the orbit memo."""
        keys = [key for key in map(raw.__and__, self.parts) if key]
        try:
            imgs = [sum(map(table.__getitem__, keys)) for table in self.images]
        except KeyError:
            self._fill(keys)
            imgs = [sum(map(table.__getitem__, keys)) for table in self.images]
        best = min(imgs, default=raw)
        pair = (best, imgs.index(best) + 1) if best < raw else (raw, 0)
        self.orbits[raw] = pair
        return pair

    def _fill(self, keys: list) -> None:
        """Enter the sub-words not yet seen into every image table."""
        for g, table in enumerate(self.images, 1):
            for key in keys:
                if key not in table:
                    table[key] = self._image(key, g)


class PackedExplorer:
    """Single-word port of the :class:`repro.engine.explorer.Explorer`
    search with search-time orbit quotienting.  Constructed by
    ``Explorer.explore()`` when the engine is ``"packed"``."""

    def __init__(
        self,
        instance: SPPInstance,
        model: CommunicationModel,
        queue_bound: int = 3,
        max_states: int = 200_000,
        reduction: str = "ample",
    ) -> None:
        if model.concurrency.name != "ONE":
            raise ValueError("the explorer supports one-node-per-step models only")
        self.instance = instance
        self.model = model
        self.queue_bound = queue_bound
        self.max_states = max_states
        self.reduction = validate_reduction(reduction)
        self.codec = codec = codec_for(instance)
        # The searches of one instance in a live fan-out block share one
        # layout (it does not depend on the model).
        self._layout = layout = _shared_layout(
            instance, self.reduction, queue_bound, _Layout
        )
        self._collapse = (
            model.count is MessageCount.ALL
            and model.reliability is Reliability.RELIABLE
        )
        self._count_all = model.count is MessageCount.ALL
        self._absorb = self.reduction == "ample" and absorption_allowed(model)
        self._combo_cache: dict = {}

        # ---- fairness masks ---------------------------------------------
        if model.scope is NeighborScope.EVERY:
            dest_in = layout.dest_in
            e_nodes = []
            for nid in range(layout.n_nodes):
                mask = sum(
                    1 << cid
                    for cid in codec.in_ch[nid]
                    if cid not in dest_in
                )
                if mask:
                    e_nodes.append((nid, mask))
            self._e_nodes = tuple(e_nodes)
        else:
            self._e_nodes = ()

        # ---- registries and memos ---------------------------------------
        self._ops: list = []
        self._menus: dict = {}
        self._chfx: dict = {}
        self._entry_ops: dict = {}
        self._emask_memo: dict = {}
        self._node_memo = tuple({} for _ in range(layout.n_nodes))
        self._local = tuple({} for _ in range(layout.n_nodes))
        self._pruned = 0
        self._orbits_merged = 0
        self._init_tau = 0
        # This search's own sightings: ``orbits_merged`` counts a merge
        # on the first one, whichever search computed the orbit.
        self._omemo: dict = {}

    # ------------------------------------------------------------------
    # Tuple-level canonicalization and per-channel read combos
    # ------------------------------------------------------------------
    def canonicalize(self, packed: tuple) -> tuple:
        """The codec-tuple twin of ``Explorer.canonicalize``: destination
        in-channels cleared, reliable count-A queues collapsed to their
        newest message, and every known route and queued message
        written as its stored digit (see ``_Layout.wval``)."""
        pi, rho, channels, announced = packed
        dest_in = self._layout.dest_in
        wval = self._layout.wval
        rho = tuple(
            0 if cid in dest_in else wval[cid][r] for cid, r in enumerate(rho)
        )
        channels = tuple(
            ()
            if cid in dest_in
            else tuple(
                wval[cid][m] for m in (queue[-1:] if self._collapse else queue)
            )
            for cid, queue in enumerate(channels)
        )
        return (pi, rho, channels, announced)

    def _count_options(self, pending: int) -> tuple:
        kind = self.model.count
        if kind is MessageCount.ONE:
            return (1,)
        if kind is MessageCount.ALL:
            return (INFINITY,)
        if pending == 0:
            return (1,)
        behaviours = list(range(1, pending + 1))
        behaviours[-1] = INFINITY
        if (
            kind is MessageCount.SOME
            and self.model.scope is NeighborScope.EVERY
        ):
            behaviours.insert(0, 0)
        return tuple(behaviours)

    def _drop_options(self, effective: int) -> tuple:
        if self.model.reliability is Reliability.RELIABLE or effective == 0:
            return (_NO_DROPS,)
        options = []
        for survivor in range(effective, 0, -1):
            options.append(frozenset(range(survivor + 1, effective + 1)))
        options.append(frozenset(range(1, effective + 1)))
        return tuple(options)

    def _combos_for(self, pending: int) -> tuple:
        """Behaviourally distinct ``(f, g)`` pairs for one channel."""
        cached = self._combo_cache.get(pending)
        if cached is None:
            combos = []
            for count in self._count_options(pending):
                effective = (
                    pending if count == INFINITY else min(count, pending)
                )
                for dropped in self._drop_options(effective):
                    combos.append((count, dropped))
            cached = tuple(combos)
            self._combo_cache[pending] = cached
        return cached

    def _kickoff(self) -> tuple:
        """The destination's kickoff entry ``(node_ids, combo)``."""
        codec = self.codec
        in_cids = codec.in_ch[codec.dest_id]
        scope = self.model.scope
        if scope is NeighborScope.ONE and in_cids:
            cids: tuple = (in_cids[0],)
        elif scope is NeighborScope.EVERY:
            cids = in_cids
        else:
            cids = ()
        count = INFINITY if self._count_all else 1
        combo = tuple((cid, count, _NO_DROPS) for cid in cids)
        return ((codec.dest_id,), combo)

    # ------------------------------------------------------------------
    # Symmetry machinery
    # ------------------------------------------------------------------
    def _orbit_min(self, raw: int) -> tuple:
        """(orbit representative, τ) with rep = σ_τ(raw); memoized in
        the layout and recorded as seen by this search."""
        layout = self._layout
        pair = layout.orbits.get(raw)
        if pair is None:
            pair = layout.orbit(raw)
        if pair[0] != raw:
            self._orbits_merged += 1
        self._omemo[raw] = pair
        return pair

    def _mask_img(self, mask: int, g: int) -> int:
        """A channel bitmask pushed through σ_g's channel permutation."""
        if not mask or not g:
            return mask
        memo = self._layout.mask_img
        cached = memo.get((mask, g))
        if cached is not None:
            return cached
        chperm = self._layout.chperms[g]
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= 1 << chperm[low.bit_length() - 1]
            m ^= low
        memo[(mask, g)] = out
        return out

    def _realized_pi(self, word: int, g: int) -> tuple:
        """π digits of σ_g(word) as a route-id tuple in node-id order."""
        layout = self._layout
        rmask = layout.rmask
        pi_off = layout.pi_off
        if not g:
            return tuple((word >> off) & rmask for off in pi_off)
        nperm = layout.node_perms[g]
        rperm = layout.rperms[g]
        out = [0] * layout.n_nodes
        for nid in range(layout.n_nodes):
            out[nperm[nid]] = rperm[(word >> pi_off[nid]) & rmask]
        return tuple(out)

    # ------------------------------------------------------------------
    # Word <-> codec 4-tuple conversion
    # ------------------------------------------------------------------
    def _encode(self, packed: tuple) -> int:
        pi, rho, channels, announced = packed
        layout = self._layout
        lb = layout.lb
        rb = layout.rb
        word = 0
        for nid, r in enumerate(pi):
            word |= r << layout.pi_off[nid]
        for nid, r in enumerate(announced):
            word |= r << layout.ann_off[nid]
        for cid, r in enumerate(rho):
            word |= r << layout.rho_off[cid]
        for cid, queue in enumerate(channels):
            fld = len(queue)
            pos = lb
            for m in queue:
                fld |= m << pos
                pos += rb
            word |= fld << layout.q_off[cid]
        return word

    def _decode(self, word: int) -> tuple:
        layout = self._layout
        rmask = layout.rmask
        lmask = layout.lmask
        fmask = layout.fmask
        lb = layout.lb
        rb = layout.rb
        pi = tuple((word >> off) & rmask for off in layout.pi_off)
        announced = tuple((word >> off) & rmask for off in layout.ann_off)
        rho = tuple((word >> off) & rmask for off in layout.rho_off)
        channels = []
        for off in layout.q_off:
            fld = (word >> off) & fmask
            ln = fld & lmask
            vals = fld >> lb
            queue = []
            for _ in range(ln):
                queue.append(vals & rmask)
                vals >>= rb
            channels.append(tuple(queue))
        return (pi, rho, tuple(channels), announced)

    # ------------------------------------------------------------------
    # Per-channel read effects and per-signature menus
    # ------------------------------------------------------------------
    def _channel_effects(self, cid: int, qf: int, rho_val: int) -> tuple:
        """(delta, preference-position) per combo of _combos_for(len).

        The delta is the packed difference applying that read combo to
        this exact queue field and ρ digit; the position is the
        receiver's preference index of the post-read known route's
        extension (the step-2 candidate)."""
        layout = self._layout
        lb = layout.lb
        rb = layout.rb
        ln = qf & layout.lmask
        queue = []
        vals = qf >> lb
        for _ in range(ln):
            queue.append(vals & layout.rmask)
            vals >>= rb
        q_shift = layout.q_off[cid]
        rho_shift = layout.rho_off[cid]
        pe = layout.pe[cid]
        effects = []
        for count, drops in self._combos_for(ln):
            take = ln if count == INFINITY else min(count, ln)
            if not take:
                effects.append((0, pe[rho_val]))
                continue
            rest = queue[take:]
            new_qf = len(rest)
            pos = lb
            for m in rest:
                new_qf |= m << pos
                pos += rb
            if drops:
                surviving = 0
                for index in range(take, 0, -1):
                    if index not in drops:
                        surviving = index
                        break
                new_rho = queue[surviving - 1] if surviving else rho_val
            else:
                new_rho = queue[take - 1]
            delta = ((new_qf - qf) << q_shift) + (
                (new_rho - rho_val) << rho_shift
            )
            effects.append((delta, pe[new_rho]))
        effects = tuple(effects)
        self._chfx[(cid, qf, rho_val)] = effects
        return effects

    def _register_op(self, nid: int, combo: tuple, choices: tuple,
                     unread: tuple, pending: dict) -> _PackedOp:
        codec = self.codec
        takes = 0
        attempts = 0
        dropped_mask = 0
        delivered_mask = 0
        for cid, count, drops in combo:
            if count != 0:
                attempts |= 1 << cid
            pend = pending.get(cid, 0)
            take = pend if count == INFINITY else min(count, pend)
            takes += take
            if take:
                if drops:
                    if any(i in drops for i in range(1, take + 1)):
                        dropped_mask |= 1 << cid
                    if any(i not in drops for i in range(1, take + 1)):
                        delivered_mask |= 1 << cid
                else:
                    delivered_mask |= 1 << cid
        in_cids = set(codec.in_ch[nid])
        attempt_set = {cid for cid, count, _ in combo if count != 0}
        full_flag = bool(in_cids) and in_cids <= attempt_set
        node_ids = tuple(sorted({nid})) if not isinstance(nid, tuple) else nid
        op = _PackedOp(
            uid=len(self._ops),
            entry=(node_ids, combo),
            choices=choices,
            unread=unread,
            takes=takes,
            attempts_mask=attempts,
            dropped_mask=dropped_mask,
            delivered_mask=delivered_mask,
            full_flag=full_flag,
            nid=nid if not isinstance(nid, tuple) else nid[0],
        )
        self._ops.append(op)
        return op

    def _build_menu(self, nid: int, sig: tuple) -> tuple:
        """All behaviourally distinct ops of node ``nid`` at queue-length
        signature ``sig`` — exactly the reference enumeration order."""
        codec = self.codec
        in_cids = codec.in_ch[nid]
        pending = dict(zip(in_cids, sig))
        pos = {cid: i for i, cid in enumerate(in_cids)}
        busy = tuple(cid for cid in in_cids if pending[cid])
        scope = self.model.scope
        if scope is NeighborScope.ONE:
            sets = tuple((cid,) for cid in busy)
        elif scope is NeighborScope.EVERY:
            sets = (in_cids,) if busy else ()
        else:
            subsets = []
            for size in range(1, len(busy) + 1):
                subsets.extend(itertools.combinations(busy, size))
            sets = tuple(subsets)
        ops = []
        for cids in sets:
            read_set = set(cids)
            unread = tuple(
                pos[cid] for cid in in_cids if cid not in read_set
            )
            per_channel = [
                [
                    (j, count, drops)
                    for j, (count, drops) in enumerate(
                        self._combos_for(pending[cid])
                    )
                ]
                for cid in cids
            ]
            for choice in itertools.product(*per_channel):
                combo = tuple(
                    (cid, count, drops)
                    for cid, (j, count, drops) in zip(cids, choice)
                )
                choices = tuple(
                    (pos[cid], j) for cid, (j, _, _) in zip(cids, choice)
                )
                ops.append(
                    self._register_op(nid, combo, choices, unread, pending)
                )
        menu = tuple(ops)
        self._menus[(nid, sig)] = menu
        return menu

    def _menu_size(self, sig: tuple) -> int:
        """``len(_build_menu(nid, sig))`` in closed form, without building
        the menu: the packed twin of Explorer._full_entry_count's
        per-node term (states_pruned accounting)."""
        if not any(sig):
            return 0
        combos = self._combos_for
        scope = self.model.scope
        if scope is NeighborScope.EVERY:
            return math.prod(len(combos(p)) for p in sig)
        busy = [len(combos(p)) for p in sig if p]
        if scope is NeighborScope.ONE:
            return sum(busy)
        return math.prod(1 + c for c in busy) - 1

    def _node_entries(self, nid: int, key: int) -> tuple:
        """Cached menu expansion of node ``nid`` at its node-local state.

        ``key`` is ``word & node_mask[nid]``; every bit the expansion
        reads lives inside the mask, so the resulting
        ``(entries, n_locally_truncated)`` pair — where each entry is
        ``(op, word_delta, total_delta)`` in reference enumeration order
        — is shared verbatim by every global state that agrees on the
        masked bits.  Only the message-total bound (which depends on the
        global total) is re-checked at the point of use.
        """
        layout = self._layout
        fmask = layout.fmask
        lmask = layout.lmask
        q_off = layout.q_off
        rho_off = layout.rho_off
        pe = layout.pe
        chfx_get = self._chfx.get
        cids = self.codec.in_ch[nid]
        sig = []
        fx = []
        spv = []
        for cid in cids:
            qf = (key >> q_off[cid]) & fmask
            rv = (key >> rho_off[cid]) & layout.rmask
            sig.append(qf & lmask)
            eff = chfx_get((cid, qf, rv))
            if eff is None:
                eff = self._channel_effects(cid, qf, rv)
            fx.append(eff)
            spv.append(pe[cid][rv])
        sig = tuple(sig)
        menu = self._menus.get((nid, sig))
        if menu is None:
            menu = self._build_menu(nid, sig)
        pi_r = (key >> layout.pi_off[nid]) & layout.rmask
        rbp_n = layout.rbp[nid]
        no_choice = layout.no_choice
        collapse = self._collapse
        qb = self.queue_bound
        out_eff = layout.out_eff[nid]
        ap = layout.ap
        cv = layout.cv
        pin = layout.pin_factor[nid]
        entries = []
        nbad = 0
        for op in menu:
            delta = 0
            best = no_choice
            for ci, j in op.choices:
                d, pv = fx[ci][j]
                delta += d
                if pv < best:
                    best = pv
            for ci in op.unread:
                pv = spv[ci]
                if pv < best:
                    best = pv
            new_pi = rbp_n[best]
            takes = op.takes
            if new_pi == pi_r:
                entries.append((op, delta, -takes))
                continue
            delta += (new_pi - pi_r) * pin
            dtot = -takes
            bad = False
            if collapse:
                for ocid in out_eff:
                    fld = (key >> q_off[ocid]) & fmask
                    delta += cv[ocid][new_pi] - (fld << q_off[ocid])
                    dtot += 1 - (fld & lmask)
            else:
                for ocid in out_eff:
                    ln = (key >> q_off[ocid]) & lmask
                    if ln >= qb:
                        bad = True
                        break
                    delta += ap[ocid][new_pi][ln]
                    dtot += 1
            if bad:
                nbad += 1
                continue
            entries.append((op, delta, dtot))
        cached = (tuple(entries), nbad)
        self._node_memo[nid][key] = cached
        return cached

    # ------------------------------------------------------------------
    # Forced/rare successors
    # ------------------------------------------------------------------
    def _entry_op(self, entry: tuple, takes: int) -> _PackedOp:
        """Registry op for a kickoff/absorption entry (memoized)."""
        op = self._entry_ops.get(entry)
        if op is not None:
            return op
        node_ids, combo = entry
        nid = node_ids[0]
        pending = {cid: 0 for cid, _, _ in combo}
        op = self._register_op(nid, combo, (), (), pending)
        op.takes = takes
        # Absorption reads deliver their single message reliably.
        if takes:
            op.delivered_mask = op.attempts_mask
        self._entry_ops[entry] = op
        return op

    def _absorption_succ(self, word: int) -> "tuple | None":
        """(op, successor word, unreduced entry count) when the forced
        absorption step applies; mirrors Explorer._absorption on packed
        digits (stored digits are representatives, so the rep-table
        comparison is a plain digit equality).

        The count is a sum, and the absorbable channel a minimum, over
        what each node's in-channel fields decide, so both are read from
        the per-node memo ``_local``; the lowest channel id across nodes
        is the one the reference channel scan meets first.
        """
        layout = self._layout
        local = self._local
        total = 0
        best = None
        for nid, mask in layout.in_mask:
            key = word & mask
            if not key:
                continue
            hit = local[nid].get(key)
            if hit is None:
                hit = self._forced_local(nid, key)
            total += hit[0]
            if hit[1] is not None and (best is None or hit[1] < best[1]):
                best = hit
        if best is None:
            return None
        if ((word >> layout.ann_dest_off) & layout.rmask) \
                != self.codec.dest_route_id:
            total += 1  # the destination kickoff
        return self._entry_op(best[2], takes=1), word + best[3], total

    def _forced_local(self, nid: int, key: int) -> tuple:
        """Fill ``_local[nid][key]``, where ``key`` is ``word & mask`` for
        the node's ``_Layout.in_mask``: ``(menu size, lowest absorbable
        in-channel id or None, its absorption entry, its word delta)``."""
        layout = self._layout
        fmask = layout.fmask
        lmask = layout.lmask
        rmask = layout.rmask
        lb = layout.lb
        q_off = layout.q_off
        rho_off = layout.rho_off
        count_all = self._count_all
        sig = []
        best = None
        for cid in self.codec.in_ch[nid]:
            fld = (key >> q_off[cid]) & fmask
            ln = fld & lmask
            sig.append(ln)
            if (
                ln
                and not (count_all and ln != 1)
                and ((fld >> lb) & rmask) == ((key >> rho_off[cid]) & rmask)
                and (best is None or cid < best)
            ):
                best = cid
        size = self._menu_size(tuple(sig))
        if best is None:
            hit = (size, None, None, 0)
        else:
            fld = (key >> q_off[best]) & fmask
            new_fld = ((fld >> (lb + layout.rb)) << lb) | ((fld & lmask) - 1)
            count = INFINITY if count_all else 1
            entry = ((nid,), ((best, count, _NO_DROPS),))
            hit = (size, best, entry, (new_fld - fld) << q_off[best])
        self._local[nid][key] = hit
        return hit

    def _kickoff_succ(self, word: int) -> "tuple | None":
        """(op, successor word, total) for the destination kickoff, or
        ``None`` when the successor breaches the queue bounds.  Rare
        (only states where the destination has not yet announced), so
        it goes through the codec-tuple slow path."""
        packed = self._decode(word)
        kick = self._kickoff()
        nxt = self.canonicalize(
            apply_packed(self.codec, packed, kick[0], kick[1])
        )
        total = 0
        for queue in nxt[2]:
            length = len(queue)
            total += length
            if length > self.queue_bound:
                return None
        if total > self._layout.total_bound:
            return None
        op = self._entry_op(kick, takes=0)
        return op, self._encode(nxt), total

    # ------------------------------------------------------------------
    # Search (packed twin of Explorer.explore)
    # ------------------------------------------------------------------
    def explore(self):
        from .explorer import ExplorationResult

        layout = self._layout
        tel = _telemetry()
        search_start = time.perf_counter()
        self._pruned = 0
        self._orbits_merged = 0
        batches = 0

        codec = self.codec
        init4 = self.canonicalize(codec.initial_packed())
        word0 = self._encode(init4)
        if layout.size > 1:
            word0, self._init_tau = self._orbit_min(word0)
        else:
            self._init_tau = 0

        states: list = [word0]
        totals = array("q", [sum(len(q) for q in init4[2])])
        index_of: dict = {word0: 0}
        parent_src = array("q", [-1])
        parent_op = array("q", [0])
        parent_tau = array("i", [0])
        adj_start = array("q", [-1])
        adj_end = array("q", [-1])
        edge_op = array("q")
        edge_tgt = array("q")
        edge_tau = array("i")
        frontier = [0]
        truncated = 0
        overflow = False
        checkpoint = 1024

        # Local bindings for the hot loop.
        rmask = layout.rmask
        in_qmask = layout.in_qmask
        total_bound = layout.total_bound
        max_states = self.max_states
        absorb = self._absorb
        n_nodes = layout.n_nodes
        gsize = layout.size
        dest_route_id = codec.dest_route_id
        ann_dest_off = layout.ann_dest_off
        node_mask = layout.node_mask
        node_memo = self._node_memo
        omemo_get = self._omemo.get
        index_get = index_of.get
        states_append = states.append
        totals_append = totals.append
        psrc_append = parent_src.append
        pop_append = parent_op.append
        ptau_append = parent_tau.append
        astart_append = adj_start.append
        aend_append = adj_end.append
        frontier_append = frontier.append
        eop_append = edge_op.append
        etgt_append = edge_tgt.append
        etau_append = edge_tau.append
        n_states = 1
        n_edges = 0
        graph = (states, totals, adj_start, adj_end, edge_op, edge_tgt,
                 edge_tau, parent_src, parent_op, parent_tau)

        def result(witness, complete) -> "ExplorationResult":
            tel.count("explore.frontier_batches", batches)
            tel.count("explore.orbits_merged", self._orbits_merged)
            return ExplorationResult(
                model_name=self.model.name,
                instance_name=self.instance.name,
                oscillates=witness is not None,
                complete=complete,
                states_explored=len(states),
                truncated_states=truncated,
                states_pruned=self._pruned,
                witness=witness,
            )

        while frontier:
            cur = frontier.pop()
            batches += 1
            word = states[cur]
            tcur = totals[cur]
            a0 = n_edges

            # Rare per-state successors: the forced absorption step (at
            # most one, replacing the whole menu) and the destination
            # kickoff.  Both go through the shared emission loop below;
            # the per-node menu successors are emitted inline.
            forced = self._absorption_succ(word) if absorb else None
            if forced is not None:
                op, succ, n_entries = forced
                self._pruned += n_entries - 1
                candidates = [(op, succ, tcur - op.takes)]
            else:
                candidates = ()
                if ((word >> ann_dest_off) & rmask) != dest_route_id:
                    kick = self._kickoff_succ(word)
                    if kick is None:
                        truncated += 1
                    else:
                        candidates = (kick,)
            for op, succ, t2 in candidates:
                if gsize > 1:
                    pair = omemo_get(succ)
                    if pair is None:
                        pair = self._orbit_min(succ)
                    succ, tau = pair
                else:
                    tau = 0
                idx = index_get(succ)
                if idx is None:
                    if n_states >= max_states:
                        overflow = True
                        truncated += 1
                        continue
                    idx = n_states
                    n_states += 1
                    index_of[succ] = idx
                    states_append(succ)
                    totals_append(t2)
                    psrc_append(cur)
                    pop_append(op.uid)
                    ptau_append(tau)
                    astart_append(-1)
                    aend_append(-1)
                    frontier_append(idx)
                eop_append(op.uid)
                etgt_append(idx)
                n_edges += 1
                if gsize > 1:
                    etau_append(tau)

            if forced is None:
                for nid in range(n_nodes):
                    if not (word & in_qmask[nid]):
                        continue
                    ent = node_memo[nid].get(word & node_mask[nid])
                    if ent is None:
                        ent = self._node_entries(nid, word & node_mask[nid])
                    entries, nbad = ent
                    truncated += nbad
                    # Inline twin of the emission loop above — one
                    # function/tuple round-trip per successor matters
                    # here (this is the engine's innermost loop).
                    for op, delta, dtot in entries:
                        t2 = tcur + dtot
                        if t2 > total_bound:
                            truncated += 1
                            continue
                        succ = word + delta
                        if gsize > 1:
                            pair = omemo_get(succ)
                            if pair is None:
                                pair = self._orbit_min(succ)
                            succ, tau = pair
                        idx = index_get(succ)
                        if idx is None:
                            if n_states >= max_states:
                                overflow = True
                                truncated += 1
                                continue
                            idx = n_states
                            n_states += 1
                            index_of[succ] = idx
                            states_append(succ)
                            totals_append(t2)
                            psrc_append(cur)
                            pop_append(op.uid)
                            ptau_append(tau if gsize > 1 else 0)
                            astart_append(-1)
                            aend_append(-1)
                            frontier_append(idx)
                        eop_append(op.uid)
                        etgt_append(idx)
                        n_edges += 1
                        if gsize > 1:
                            etau_append(tau)
            adj_start[cur] = a0
            adj_end[cur] = n_edges

            if n_states >= checkpoint:
                checkpoint *= 4
                if tel.enabled:
                    tel.heartbeat(
                        "explore",
                        instance=self.instance.name,
                        model=self.model.name,
                        engine="packed",
                        states=len(states),
                        pruned=self._pruned,
                        truncated=truncated,
                        frontier=len(frontier),
                        elapsed_s=round(
                            time.perf_counter() - search_start, 6
                        ),
                    )
                # Mid-search early exit is only taken on the trivial-
                # group path, where the graph and visit order replicate
                # the reference engine exactly — so the exit (and the
                # resulting ``complete=False``) fires at the same state
                # count.  Under a nontrivial group the quotient reaches
                # cycles at different prefixes than the concrete search,
                # so an early exit could flip ``complete`` relative to
                # reference; the quotient is small enough to finish.
                if gsize == 1:
                    witness = self._find_fair_oscillation(graph)
                    if witness is not None:
                        return result(witness, complete=False)

        witness = self._find_fair_oscillation(graph)
        return result(witness, complete=(truncated == 0 and not overflow))

    # ------------------------------------------------------------------
    # SCC enumeration
    # ------------------------------------------------------------------
    def _sccs_csr(self, n, adj_start, adj_end, edge_tgt):
        """Iterative Tarjan over the CSR arrays: the components that can
        host a cycle, in emission order, members in stack-pop order.

        A component qualifies if it has two members or more, or is a
        single state with a self-loop; any other singleton is popped
        without allocating.  (A self-loop singleton fails the plain
        two-assignment gate at once, but under a nontrivial group it can
        unroll to a real multi-state cycle.)

        ``index[v]`` is -1 before ``v`` is reached, its DFS number while
        it is on the SCC stack, and ``n`` (above every DFS number) once
        its component is emitted, so one comparison both skips finished
        targets and lowers ``low``.  An unexpanded state has
        ``adj_start == adj_end == -1``: no edges.
        """
        index = [-1] * n
        low = [0] * n
        starts = adj_start.tolist()
        ends = adj_end.tolist()
        targets = edge_tgt.tolist()
        scc_stack: list = []
        comps: list = []
        counter = 0
        for root in range(n):
            if index[root] != -1:
                continue
            index[root] = low[root] = counter
            counter += 1
            scc_stack.append(root)
            vstack = [root]
            pstack = [starts[root]]
            while vstack:
                v = vstack[-1]
                p = pstack[-1]
                e = ends[v]
                lv = low[v]
                while p < e:
                    t = targets[p]
                    p += 1
                    ti = index[t]
                    if ti == -1:
                        break
                    if ti < lv:
                        lv = ti
                else:
                    # Every edge of v is done: retire it.
                    low[v] = lv
                    vstack.pop()
                    pstack.pop()
                    if vstack:
                        u = vstack[-1]
                        if lv < low[u]:
                            low[u] = lv
                    if lv != index[v]:
                        continue
                    if scc_stack[-1] == v:
                        scc_stack.pop()
                        index[v] = n
                        if v in targets[starts[v]:e]:
                            comps.append([v])
                        continue
                    comp = []
                    while True:
                        w = scc_stack.pop()
                        index[w] = n
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                    continue
                # Descend into the unreached target t.
                low[v] = lv
                pstack[-1] = p
                index[t] = low[t] = counter
                counter += 1
                scc_stack.append(t)
                vstack.append(t)
                pstack.append(starts[t])
        return comps

    # ------------------------------------------------------------------
    # Fairness gates
    # ------------------------------------------------------------------
    def _empty_mask(self, s: int, states: list) -> int:
        mask = self._emask_memo.get(s)
        if mask is None:
            layout = self._layout
            word = states[s]
            fmask = layout.fmask
            q_off = layout.q_off
            mask = 0
            for cid in layout.relevant_cids:
                if not ((word >> q_off[cid]) & fmask):
                    mask |= 1 << cid
            self._emask_memo[s] = mask
        return mask

    def _collect_inner_masks(self, comp, members, graph):
        """(serviced, dropped, delivered, full_nodes) over inner edges."""
        states, totals, adj_start, adj_end, edge_op, edge_tgt, edge_tau, \
            parent_src, parent_op, parent_tau = graph
        ops = self._ops
        serviced = dropped = delivered = full_nodes = 0
        for s in comp:
            a = adj_start[s]
            if a < 0:
                continue
            for k in range(a, adj_end[s]):
                if edge_tgt[k] in members:
                    op = ops[edge_op[k]]
                    serviced |= op.attempts_mask
                    dropped |= op.dropped_mask
                    delivered |= op.delivered_mask
                    if op.full_flag:
                        full_nodes |= 1 << op.nid
        return serviced, dropped, delivered, full_nodes

    def _plain_qualifies(self, comp, graph) -> bool:
        layout = self._layout
        states = graph[0]
        pimask = layout.pimask
        assignments = set()
        for s in comp:
            assignments.add(states[s] & pimask)
            if len(assignments) > 1:
                break
        if len(assignments) < 2:
            return False
        members = set(comp)
        serviced, dropped, delivered, full_nodes = (
            self._collect_inner_masks(comp, members, graph)
        )
        empty_union = 0
        for s in comp:
            empty_union |= self._empty_mask(s, states)
        if layout.relevant_mask & ~(serviced | empty_union):
            return False
        for nid, nmask in self._e_nodes:
            if (full_nodes >> nid) & 1:
                continue
            if not any(
                self._empty_mask(s, states) & nmask == nmask for s in comp
            ):
                return False
        if self.model.reliability is Reliability.UNRELIABLE:
            if dropped & ~(delivered | empty_union):
                return False
        return True

    def _find_fair_oscillation(self, graph):
        comps = self._sccs_csr(len(graph[0]), graph[2], graph[3], graph[5])
        if self._layout.size == 1:
            # The reference engine returns the *first* qualifying SCC in
            # Tarjan emission order; replicate that exactly so trivial-
            # group witnesses stay bit-identical.
            for comp in comps:
                if self._plain_qualifies(comp, graph):
                    return self._build_witness_plain(comp, graph)
            return None
        comps.sort(key=min)
        for comp in comps:
            witness = self._check_threaded(comp, graph)
            if witness is not None:
                return witness
        return None

    # ------------------------------------------------------------------
    # Witness construction (trivial group)
    # ------------------------------------------------------------------
    def _bfs_path(self, start, goal, members, graph):
        """Entry/target steps start → goal inside ``members`` (CSR order)."""
        if start == goal:
            return []
        states, totals, adj_start, adj_end, edge_op, edge_tgt, edge_tau, \
            parent_src, parent_op, parent_tau = graph
        queue = [start]
        back: dict = {start: None}
        while queue:
            current = queue.pop(0)
            a = adj_start[current]
            if a < 0:
                continue
            for k in range(a, adj_end[current]):
                target = edge_tgt[k]
                if target in members and target not in back:
                    back[target] = (current, edge_op[k])
                    if target == goal:
                        steps = []
                        cursor = goal
                        while back[cursor] is not None:
                            previous, uid = back[cursor]
                            steps.append((uid, cursor))
                            cursor = previous
                        steps.reverse()
                        return steps
                    queue.append(target)
        raise AssertionError("SCC members must be mutually reachable")

    def _prefix_uids(self, anchor, graph):
        """Parent-chain (uid, tau) pairs from the root down to anchor."""
        parent_src = graph[7]
        parent_op = graph[8]
        parent_tau = graph[9]
        chain = []
        cursor = anchor
        while parent_src[cursor] != -1:
            chain.append((parent_op[cursor], parent_tau[cursor]))
            cursor = parent_src[cursor]
        chain.reverse()
        return chain

    def _build_witness_plain(self, comp, graph):
        from .explorer import OscillationWitness

        codec = self.codec
        states = graph[0]
        pimask = self._layout.pimask
        members = set(comp)
        anchor = min(comp)
        anchor_pi = states[anchor] & pimask
        # ``comp`` is in Tarjan stack-pop order; the reference engine
        # picks the first differing-π member in that same order.
        other = next(s for s in comp if states[s] & pimask != anchor_pi)
        period = self._bfs_path(anchor, other, members, graph) + \
            self._bfs_path(other, anchor, members, graph)
        ops = self._ops
        cycle_entries = tuple(
            codec.entry_of(ops[uid].entry) for uid, _ in period
        )
        prefix_entries = tuple(
            codec.entry_of(ops[uid].entry)
            for uid, _ in self._prefix_uids(anchor, graph)
        )
        assignments = {
            codec.assignment_key(self._realized_pi(states[anchor], 0)),
            codec.assignment_key(self._realized_pi(states[other], 0)),
        }
        return OscillationWitness(
            prefix=prefix_entries,
            cycle=cycle_entries,
            assignments=tuple(sorted(assignments, key=repr)),
        )

    # ------------------------------------------------------------------
    # Threaded (permutation-annotated) fairness for nontrivial groups
    # ------------------------------------------------------------------
    def _threaded_adjacency(self, comp, members, graph):
        """Adjacency of the Ip–Dill product restricted to one quotient
        SCC: node (s, g) realizes σ_g(s); a quotient edge s →(op, τ) t
        lifts to (s, g) → (t, g·τ⁻¹) realized as σ_g(op)."""
        layout = self._layout
        states, totals, adj_start, adj_end, edge_op, edge_tgt, edge_tau, \
            parent_src, parent_op, parent_tau = graph
        comp_tab = layout.comp_tab
        inv_tab = layout.inv_tab
        gsize = layout.size
        tadj: dict = {}
        for s in comp:
            a = adj_start[s]
            rows = []
            if a >= 0:
                for k in range(a, adj_end[s]):
                    t = edge_tgt[k]
                    if t in members:
                        rows.append((t, edge_op[k], edge_tau[k]))
            for g in range(gsize):
                row_g = comp_tab[g]
                tadj[(s, g)] = [
                    ((t, row_g[inv_tab[tau]]), uid)
                    for t, uid, tau in rows
                ]
        return tadj

    def _tarjan_dict(self, adjacency: dict):
        """Iterative Tarjan over a dict-of-lists graph; yields comps."""
        index_counter = itertools.count()
        indexes: dict = {}
        lowlink: dict = {}
        on_stack: set = set()
        stack: list = []
        for root in adjacency:
            if root in indexes:
                continue
            work = [(root, iter(adjacency.get(root, ())))]
            indexes[root] = lowlink[root] = next(index_counter)
            stack.append(root)
            on_stack.add(root)
            while work:
                vertex, iterator = work[-1]
                advanced = False
                for (target, _uid) in iterator:
                    if target not in indexes:
                        indexes[target] = lowlink[target] = next(
                            index_counter
                        )
                        stack.append(target)
                        on_stack.add(target)
                        work.append(
                            (target, iter(adjacency.get(target, ())))
                        )
                        advanced = True
                        break
                    if target in on_stack:
                        lowlink[vertex] = min(
                            lowlink[vertex], indexes[target]
                        )
                if advanced:
                    continue
                work.pop()
                if work:
                    parent_vertex = work[-1][0]
                    lowlink[parent_vertex] = min(
                        lowlink[parent_vertex], lowlink[vertex]
                    )
                if lowlink[vertex] == indexes[vertex]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == vertex:
                            break
                    yield component

    def _check_threaded(self, comp, graph):
        states = graph[0]
        members = set(comp)
        tadj = self._threaded_adjacency(comp, members, graph)
        for tcomp in self._tarjan_dict(tadj):
            tset = set(tcomp)
            inner = []
            for tnode in tcomp:
                for target, uid in tadj[tnode]:
                    if target in tset:
                        inner.append((tnode, target, uid))
            if not inner:
                continue
            assignments = set()
            for s, g in tcomp:
                assignments.add(self._realized_pi(states[s], g))
                if len(assignments) > 1:
                    break
            if len(assignments) < 2:
                continue
            if not self._threaded_fairness(tcomp, inner, states):
                continue
            return self._build_witness_threaded(tcomp, tset, tadj, graph)
        return None

    def _threaded_fairness(self, tcomp, inner, states) -> bool:
        """The reference fairness predicate on the realized component."""
        layout = self._layout
        ops = self._ops
        nperms = layout.node_perms
        mask_img = self._mask_img
        serviced = dropped = delivered = full_nodes = 0
        for (s, g), _target, uid in inner:
            op = ops[uid]
            serviced |= mask_img(op.attempts_mask, g)
            dropped |= mask_img(op.dropped_mask, g)
            delivered |= mask_img(op.delivered_mask, g)
            if op.full_flag:
                full_nodes |= 1 << nperms[g][op.nid]
        empties = [
            mask_img(self._empty_mask(s, states), g) for s, g in tcomp
        ]
        empty_union = 0
        for mask in empties:
            empty_union |= mask
        if layout.relevant_mask & ~(serviced | empty_union):
            return False
        for nid, nmask in self._e_nodes:
            if (full_nodes >> nid) & 1:
                continue
            if not any(mask & nmask == nmask for mask in empties):
                return False
        if self.model.reliability is Reliability.UNRELIABLE:
            if dropped & ~(delivered | empty_union):
                return False
        return True

    def _entry_img(self, entry: tuple, g: int) -> tuple:
        """A packed entry relabeled through σ_g (drop indices are
        queue positions, which σ preserves)."""
        if not g:
            return entry
        node_ids, combo = entry
        layout = self._layout
        nperm = layout.node_perms[g]
        chperm = layout.chperms[g]
        return (
            tuple(sorted(nperm[nid] for nid in node_ids)),
            tuple(
                sorted(
                    ((chperm[cid], count, drops)
                     for cid, count, drops in combo),
                )
            ),
        )

    def _tbfs_path(self, start, goal, tset, tadj):
        if start == goal:
            return []
        queue = [start]
        back: dict = {start: None}
        while queue:
            current = queue.pop(0)
            for target, uid in tadj[current]:
                if target in tset and target not in back:
                    back[target] = (current, uid)
                    if target == goal:
                        steps = []
                        cursor = goal
                        while back[cursor] is not None:
                            previous, step_uid = back[cursor]
                            steps.append((previous, step_uid))
                            cursor = previous
                        steps.reverse()
                        return steps
                    queue.append(target)
        raise AssertionError("threaded SCC members must be reachable")

    def _build_witness_threaded(self, tcomp, tset, tadj, graph):
        from .explorer import OscillationWitness

        layout = self._layout
        codec = self.codec
        states = graph[0]
        comp_tab = layout.comp_tab
        inv_tab = layout.inv_tab
        ops = self._ops

        anchor = min(tcomp)
        s_star, g_star = anchor
        anchor_key = self._realized_pi(states[s_star], g_star)
        other = min(
            t for t in tcomp
            if self._realized_pi(states[t[0]], t[1]) != anchor_key
        )
        period = self._tbfs_path(anchor, other, tset, tadj) + \
            self._tbfs_path(other, anchor, tset, tadj)

        # Thread the prefix from the root: state 0 realizes the true
        # initial state through the inverse of its recorded τ.
        g_cursor = inv_tab[self._init_tau]
        prefix_entries = []
        for uid, tau in self._prefix_uids(s_star, graph):
            prefix_entries.append(
                codec.entry_of(self._entry_img(ops[uid].entry, g_cursor))
            )
            g_cursor = comp_tab[g_cursor][inv_tab[tau]]
        g_prefix = g_cursor

        # Conjugate the threaded cycle by δ = σ_{g_prefix} ∘ σ_{g*}⁻¹ so
        # it closes at the prefix endpoint's realization σ_{g_prefix}(s*).
        base = comp_tab[g_prefix][inv_tab[g_star]]
        cycle_entries = tuple(
            codec.entry_of(
                self._entry_img(ops[uid].entry, comp_tab[base][g])
            )
            for ((s, g), uid) in period
        )
        other_s, other_g = other
        assignments = {
            codec.assignment_key(
                self._realized_pi(states[s_star], g_prefix)
            ),
            codec.assignment_key(
                self._realized_pi(states[other_s], comp_tab[base][other_g])
            ),
        }
        return OscillationWitness(
            prefix=tuple(prefix_entries),
            cycle=cycle_entries,
            assignments=tuple(sorted(assignments, key=repr)),
        )
