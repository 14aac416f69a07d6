(* Each counter is striped by tid (see [Prims.Xatomic.striped]), so
   the per-operation bumps of different threads never write a shared
   line. *)
module X = Prims.Xatomic

type t = {
  allocs : X.striped;
  retires : X.striped;
  frees : X.striped;
  mutable probe : Obs.Probe.t;
}

let create () =
  {
    allocs = X.make_striped ();
    retires = X.make_striped ();
    frees = X.make_striped ();
    probe = Obs.Probe.noop;
  }

let on_alloc t ~tid = X.striped_incr t.allocs tid
let on_retire t ~tid = X.striped_incr t.retires tid
let on_free t ~tid = X.striped_incr t.frees tid
let allocs t = X.striped_sum t.allocs
let retires t = X.striped_sum t.retires
let frees t = X.striped_sum t.frees

(* A block is freed only after it was retired, and every stripe is
   monotonic, so summing ALL the [frees] stripes before reading ANY
   [retires] stripe guarantees the retires total is at least as recent
   as the frees total: the difference cannot go negative however many
   retire+free pairs land in between, whichever stripes they hit.
   (Reading in the opposite order let a sampler racing a retire+free
   pair observe frees > retires and report a negative backlog, which
   skewed the Fig. 9/10 minima.)  The clamp guards the remaining case
   of a caller mixing reads from different moments. *)
let unreclaimed t =
  let f = frees t in
  let r = retires t in
  max 0 (r - f)

type snapshot = { allocs : int; retires : int; frees : int }

(* Same ordering discipline: every frees stripe, then every retires
   stripe (which covers frees), then every allocs stripe (which covers
   retires, since a block is retired only after it was allocated).
   The resulting snapshot is internally consistent: allocs >= retires
   >= frees always holds. *)
let snapshot (t : t) =
  let frees = frees t in
  let retires = max frees (retires t) in
  let allocs = max retires (allocs t) in
  { allocs; retires; frees }

let unreclaimed_of { retires; frees; _ } = max 0 (retires - frees)

let pp_snapshot ppf ({ allocs; retires; frees } as s) =
  Format.fprintf ppf "allocs=%d retires=%d frees=%d unreclaimed=%d" allocs
    retires frees (unreclaimed_of s)

let set_probe t probe = t.probe <- probe
let probe t = t.probe
