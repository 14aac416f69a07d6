type t = { stats : Stats.t }

let name = "Leaky"
let robust = false
let transparent = true
let create (_ : Config.t) = { stats = Stats.create () }
let enter _ ~tid:_ = ()
let leave _ ~tid:_ = ()
let trim _ ~tid:_ = ()
let alloc_hook t ~tid (_ : Hdr.t) = Stats.on_alloc t.stats ~tid
let read _ ~tid:_ ~idx:_ a _proj = Atomic.get a
let transfer _ ~tid:_ ~from_idx:_ ~to_idx:_ = ()

let retire t ~tid hdr = Tracker.retire_block t.stats ~tid hdr
let flush _ ~tid:_ = ()
let stats t = t.stats
let gauges _ = []
