(** Directory of slot arrays for adaptive resizing (paper §4.3, Fig. 6).

    The slot count [k] must grow when every existing slot is poisoned
    by stalled threads, but a flat array cannot be resized lock-free
    without moving elements.  The paper's fix: a small fixed directory
    (at most 64 entries on 64-bit machines) of pointers to arrays;
    level 0 holds the initial [Kmin] slots, and each later level
    doubles the total, so level [L >= 1] covers slots
    [\[Kmin * 2{^L-1}, Kmin * 2{^L})].  Published levels are never
    moved, so {!get} is a wait-free address computation via [log2]
    (hardware [lzcnt] in the paper; a shift loop here). *)

type 'a t

val create : kmin:int -> (unit -> 'a) -> 'a t
(** [create ~kmin mk] allocates level 0 with [kmin] slots, each
    initialized by [mk].  [kmin] must be a positive power of two.
    @raise Invalid_argument otherwise. *)

val kmin : 'a t -> int

val capacity : 'a t -> int
(** Number of slots currently backed by published levels. *)

val get : 'a t -> int -> 'a
(** [get t i] returns slot [i].  Wait-free and allocation-free; the
    initial [kmin] slots skip the level computation.
    @raise Invalid_argument if [i] is not yet covered (callers must
    [ensure] growth before advertising a larger [k]). *)

val ensure : 'a t -> k:int -> unit
(** [ensure t ~k] publishes levels until at least [k] slots exist.
    Lock-free; concurrent callers race on CAS-publishing each level
    and losers discard their allocation (exactly the paper's
    protocol). *)
