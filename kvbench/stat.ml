(* Timers, kept samples and exact percentiles. *)

external now_ns : unit -> int = "kvb_now_ns" [@@noalloc]
(** Monotonic clock, integer nanoseconds. *)

(* A growable int buffer: every latency sample is kept, so each
   percentile is an order statistic of the run, never a bucket edge. *)
type samples = { mutable a : int array; mutable n : int }

let samples ?(cap = 4096) () = { a = Array.make cap 0; n = 0 }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  Array.unsafe_set t.a t.n v;
  t.n <- t.n + 1

let clear t = t.n <- 0

let merge ts =
  let n = List.fold_left (fun acc t -> acc + t.n) 0 ts in
  let a = Array.make (max n 1) 0 in
  let _ =
    List.fold_left
      (fun off t ->
        Array.blit t.a 0 a off t.n;
        off + t.n)
      0 ts
  in
  { a; n }

let sum t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + t.a.(i)
  done;
  !s

let mean t = if t.n = 0 then 0. else float_of_int (sum t) /. float_of_int t.n

(* Sorted copy; percentiles then read it by nearest rank. *)
let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort (fun (x : int) y -> compare x y) s;
  s

(* Nearest-rank q-quantile of a sorted array: the smallest sample with
   at least [q] of the samples at or below it. *)
let pct s q =
  let n = Array.length s in
  if n = 0 then 0
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) r))

let median_float l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let us ns = float_of_int ns /. 1e3

(* Process user+sys CPU seconds, all domains. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Periodic point samples of racy gauges, taken by the calling domain
   between sleeps: mean and max of each. *)
type gauge = { g_read : unit -> int; mutable g_sum : int; mutable g_n : int; mutable g_max : int }

let gauge g_read = { g_read; g_sum = 0; g_n = 0; g_max = 0 }

let sample g =
  let v = g.g_read () in
  g.g_sum <- g.g_sum + v;
  g.g_n <- g.g_n + 1;
  if v > g.g_max then g.g_max <- v

let gauge_mean g = if g.g_n = 0 then 0. else float_of_int g.g_sum /. float_of_int g.g_n

(* Sleep-sample until [deadline] (monotonic ns), one round per
   [period] seconds. *)
let sample_until ~deadline ?(period = 0.01) gauges =
  let period_ns = int_of_float (period *. 1e9) in
  let rec go () =
    let left = deadline - now_ns () in
    if left > 0 then begin
      Unix.sleepf (float_of_int (min left period_ns) /. 1e9);
      List.iter sample gauges;
      go ()
    end
  in
  go ()
