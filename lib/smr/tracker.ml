module type S = sig
  type t

  val name : string
  val robust : bool
  val transparent : bool
  val create : Config.t -> t
  val enter : t -> tid:int -> unit
  val leave : t -> tid:int -> unit
  val trim : t -> tid:int -> unit
  val alloc_hook : t -> tid:int -> Hdr.t -> unit
  val read : t -> tid:int -> idx:int -> 'a Atomic.t -> ('a -> Hdr.t) -> 'a
  val transfer : t -> tid:int -> from_idx:int -> to_idx:int -> unit
  val retire : t -> tid:int -> Hdr.t -> unit
  val flush : t -> tid:int -> unit
  val stats : t -> Stats.t
  val gauges : t -> (string * int) list
end

type packed = (module S)

let free_block stats ~tid hdr =
  Hdr.set_freed hdr;
  hdr.Hdr.free_hook ();
  Stats.on_free stats ~tid;
  let p = Stats.probe stats in
  if not (Obs.Probe.is_noop p) then
    let lag_ns =
      if hdr.Hdr.retire_ns = 0 then 0
      else max 0 (Obs.Clock.now_ns () - hdr.Hdr.retire_ns)
    in
    p.Obs.Probe.free ~tid ~lag_ns

let retire_block stats ~tid hdr =
  Hdr.set_retired hdr;
  Stats.on_retire stats ~tid;
  let p = Stats.probe stats in
  if not (Obs.Probe.is_noop p) then begin
    hdr.Hdr.retire_ns <- Obs.Clock.now_ns ();
    p.Obs.Probe.retire ~tid
  end
