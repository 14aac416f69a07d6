(** Helpers over [Stdlib.Atomic] used throughout the SMR schemes. *)

val cas_max : int Atomic.t -> int -> int
(** [cas_max a v] atomically raises [a] to at least [v] and returns the
    resulting value (which is [>= v]).  This is the [touch] helper of
    Hyaline-S (paper Figure 5): a CAS loop that only ever increases the
    stored value, so concurrent callers cannot regress an era. *)

val incr_if_at_least : int Atomic.t -> int -> bool
(** [incr_if_at_least a floor] atomically increments [a] by one if its
    current value is [>= floor]; returns whether the increment
    happened.  Used by epoch/era clocks that must not skip values. *)

val update : 'a Atomic.t -> ('a -> 'a) -> 'a
(** [update a f] repeatedly applies [f] to the current value of [a]
    until a compare-and-set succeeds; returns the value that was
    replaced (the "old" value witnessed by the successful CAS). *)

val wrapping_add : int -> int -> int
(** [wrapping_add a b] is [a + b] modulo [2{^63}] (OCaml native-int
    arithmetic already wraps; this alias documents intent at the call
    sites implementing Hyaline's unsigned-overflow adjustment trick). *)

val make_padded : 'a -> 'a Atomic.t
(** [make_padded v] is [Atomic.make v] on a block padded to a cache
    line (and its prefetch partner), so two padded atomics allocated
    back to back never share a line: the building block of striped
    counters written from several domains.  Costs 16 words instead of
    one. *)

val pad_record : 'a -> 'a
(** [pad_record r] is a copy of the freshly built record [r] on a
    16-word block: its fields first, padding behind them, so per-thread
    state written on every operation (a slot index, a handle, a batch
    under construction) shares no cache line with another thread's.
    Pass the record straight from its constructor and keep only the
    copy.  Field reads and writes, including mutable ones, behave as on
    [r]; structural comparison, hashing and marshalling see the padding,
    so use it only on records that never meet them.  A record of 16
    fields or more is returned as is.
    @raise Invalid_argument if [r] is not a plain record (an immediate,
    a float-only record, or a block with a non-zero tag). *)

(** {2 Striped counters}

    A counter spread over {!stripes} padded atomics, so writers on
    different stripes never share a cache line.  Writers pick a stripe
    by any int (a tid, a domain id); a read sums the stripes one load
    at a time, so it is not a snapshot: callers that compare two
    monotonic counters must finish summing the one that trails before
    starting on the one that leads. *)

type striped

val stripes : int
(** Stripes per counter (8). *)

val make_striped : unit -> striped
(** A zeroed counter. *)

val striped_incr : striped -> int -> unit
(** [striped_incr c i] adds one to stripe [i mod stripes]. *)

val striped_sum : striped -> int
(** Sum of all stripes. *)
