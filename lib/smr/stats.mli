(** Reclamation statistics shared by every scheme.

    The paper's second metric (Figures 9, 12, 14, 16) is the average
    number of {e retired but not yet reclaimed} objects, sampled during
    the run; trackers bump these counters on each transition and the
    workload harness samples [unreclaimed].

    Each counter is striped by [tid] over cache-line-padded atomics
    ({!Prims.Xatomic.make_padded}), so threads bumping counters on
    every operation never write a shared cache line; a read sums the
    stripes.  A block may be retired by one tid and freed by another,
    so only the totals are meaningful.

    Read-side consistency: every read path here sums {e all} the
    [frees] stripes before loading {e any} [retires] stripe, and all
    the [retires] stripes before any [allocs] stripe.  Since a block
    is allocated before it is retired and retired before it is freed,
    and every stripe is monotonic, that order makes the invariant
    [allocs >= retires >= frees] hold for every value this interface
    returns — a sampler racing a retire+free pair can never observe a
    negative backlog. *)

type t

val create : unit -> t

val on_alloc : t -> tid:int -> unit
val on_retire : t -> tid:int -> unit
val on_free : t -> tid:int -> unit
(** Count one transition on [tid]'s stripe.  Any int is accepted as a
    tid (it is reduced modulo the stripe count); tids sharing a stripe
    stay exact, they only contend. *)

val allocs : t -> int
val retires : t -> int
val frees : t -> int

val unreclaimed : t -> int
(** [retires - frees] at the moment of the call: blocks whose storage
    an unmanaged-heap program could not yet have returned to the OS.
    Never negative. *)

type snapshot = { allocs : int; retires : int; frees : int }

val snapshot : t -> snapshot
(** Internally consistent sample: [allocs >= retires >= frees]. *)

val unreclaimed_of : snapshot -> int
(** The snapshot's retired-not-yet-freed backlog, clamped at 0. *)

val pp_snapshot : Format.formatter -> snapshot -> unit

(** {2 Instrumentation}

    The stats block doubles as the per-tracker carrier of the
    observability {!Obs.Probe.t}: the shared retire/free funnel
    ({!Tracker.retire_block} / {!Tracker.free_block}) consults it, so
    installing a probe instruments every scheme's reclamation path
    without touching scheme internals.  Default: {!Obs.Probe.noop}
    (one physical-equality check per transition, nothing else). *)

val set_probe : t -> Obs.Probe.t -> unit
val probe : t -> Obs.Probe.t
