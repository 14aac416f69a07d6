type 'a t = {
  kmin : int;
  log_kmin : int;
  level0 : 'a array; (* = levels.(0), published at creation *)
  levels : 'a array option Atomic.t array;
  mk : unit -> 'a;
}

let max_levels = 64

let create ~kmin mk =
  if not (Smr.Config.is_pow2 kmin) then
    invalid_arg "Directory.create: kmin not a power of two";
  let levels = Array.init max_levels (fun _ -> Atomic.make None) in
  let level0 = Array.init kmin (fun _ -> mk ()) in
  Atomic.set levels.(0) (Some level0);
  { kmin; log_kmin = Adjs.log2 kmin; level0; levels; mk }

let kmin t = t.kmin

(* floor(log2 n) for n >= 1 *)
let ilog2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let capacity t =
  let rec go l cap =
    if l >= max_levels then cap
    else
      match Atomic.get t.levels.(l) with
      | None -> cap
      | Some _ -> go (l + 1) (if l = 0 then t.kmin else cap * 2)
  in
  go 0 0

(* No tuple on the way: [get] runs on every enter, leave and protected
   read, and the initial slots (the only ones unless the scheme grew)
   need neither the level computation nor the atomic load. *)
let get t i =
  if i < t.kmin then t.level0.(i)
  else
    let l = ilog2 (i lsr t.log_kmin) + 1 in
    match Atomic.get t.levels.(l) with
    | Some arr -> arr.(i - (t.kmin lsl (l - 1)))
    | None -> invalid_arg "Directory.get: slot not yet published"

let ensure t ~k =
  let rec go l covered =
    if covered >= k || l >= max_levels then ()
    else begin
      (match Atomic.get t.levels.(l) with
      | Some _ -> ()
      | None ->
          (* Level [l >= 1] has as many slots as all previous levels
             combined, doubling the total. *)
          let size = t.kmin lsl (l - 1) in
          let arr = Array.init size (fun _ -> t.mk ()) in
          ignore (Atomic.compare_and_set t.levels.(l) None (Some arr)));
      go (l + 1) (covered * 2)
    end
  in
  go 1 t.kmin
