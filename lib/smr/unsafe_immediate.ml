type t = { cfg : Config.t; stats : Stats.t }

let name = "UnsafeImmediate"
let robust = false
let transparent = true

let create cfg =
  Config.validate cfg;
  { cfg; stats = Stats.create () }

let enter _ ~tid:_ = ()
let leave _ ~tid:_ = ()
let trim _ ~tid:_ = ()
let alloc_hook t ~tid (_ : Hdr.t) = Stats.on_alloc t.stats ~tid

let read t ~tid:_ ~idx:_ a proj =
  let v = Atomic.get a in
  if t.cfg.check_uaf then Hdr.check_not_freed "Unsafe_immediate.read" (proj v);
  v

let transfer _ ~tid:_ ~from_idx:_ ~to_idx:_ = ()

let retire t ~tid hdr =
  Tracker.retire_block t.stats ~tid hdr;
  Tracker.free_block t.stats ~tid hdr

let flush _ ~tid:_ = ()
let stats t = t.stats
let gauges _ = []
