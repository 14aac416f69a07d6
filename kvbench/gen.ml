(* The benchmark's inputs.  Every request stream is a pure function of
   (seed, workload, client): [create ~seed ~client] and repeated
   [next] calls give the same requests on every run, whatever the
   timing, and the program under test only ever sees the generated
   requests. *)

module Rng = Prims.Rng

(* SplitMix64 finalizer over the tuple, for derived seeds and per-key
   attributes. *)
let mix l =
  List.fold_left
    (fun h x ->
      let z = (h lxor x) * 0x3f4a7c15 in
      let z = (z lxor (z lsr 30)) * 0x1ce4e5b9 in
      let z = (z lxor (z lsr 27)) * 0x133111eb in
      (z lxor (z lsr 31)) land max_int)
    0x2545f491 l

let rng ~seed ~workload ~client = Rng.create ~seed:(mix [ seed; workload; client ])

(* Seeded Fisher-Yates permutation of [0, n). *)
let permutation r n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ds-churn: 50% insert / 50% delete, keys uniform over 100k, 50k
   prefilled (paper §6 sizes). *)
module Churn = struct
  let id = 1
  let keys = 100_000
  let prefill = 50_000

  type t = Rng.t

  let create ~seed ~client = rng ~seed ~workload:id ~client

  (* [key lsl 1 lor insert]: one int, no allocation on the hot path. *)
  let next g = (Rng.below g keys lsl 1) lor Rng.below g 2

  let prefill_keys ~seed =
    Array.sub (permutation (rng ~seed ~workload:id ~client:(-1)) keys) 0 prefill

  let to_string op = Printf.sprintf "%s %d" (if op land 1 = 1 then "ins" else "del") (op lsr 1)
end

(* kv-read-shm: 95% GET / 5% PUTB, Zipf(0.99) over 8,192 prefilled
   keys.  Client [c] owns the stripe [rank * clients + c].  A key's
   value size follows its Zipf rank, not the seed, so every seed offers
   the same byte mix and picks only the request order and the value
   bytes: sizes drawn per key by the seed would let the few hottest
   keys decide a run's mean GET size (1.4-2.1 KB over seeds 1-40). *)
module Shm = struct
  let id = 2
  let clients = 2
  let keys = 8192
  let stripe = keys / clients
  let sizes = [| 64; 1024; 4080 |]
  let size_of key = sizes.(key / clients mod Array.length sizes)
  let key_of ~client rank = (rank * clients) + client

  let value ~seed ~key ~ver =
    let h = mix [ seed; key; ver ] in
    String.init (size_of key) (fun i -> Char.unsafe_chr ((h + (i * 131) + (i lsr 8)) land 0xff))

  type t = { g : Rng.t; seed : int; client : int; zipf : Workload.Keydist.t; vers : int array }

  let create ~seed ~client =
    {
      g = rng ~seed ~workload:id ~client;
      seed;
      client;
      zipf = Workload.Keydist.zipf ~theta:0.99 ~range:stripe ();
      vers = Array.make stripe 0;
    }

  let next t : Service.Codec.request =
    let rank = Workload.Keydist.draw t.zipf t.g in
    let key = key_of ~client:t.client rank in
    if Rng.below t.g 100 < 95 then Get key
    else begin
      let ver = t.vers.(rank) + 1 in
      t.vers.(rank) <- ver;
      Putb { key; value = value ~seed:t.seed ~key ~ver }
    end
end

(* kv-write-wal: Loadgen.write_heavy (40 GET / 30 PUT / 20 DEL /
   10 CAS), keys uniform over 100k, 50k prefilled.  Client [c] owns
   the stripe [rank * clients + c].  The generator keeps a shadow of
   its stripe (every request assumed to succeed) so that half the
   CASes name the current value and can succeed. *)
module Wal = struct
  let id = 3
  let clients = 2
  let keys = 100_000
  let stripe = keys / clients
  let key_of ~client rank = (rank * clients) + client
  let mix_ = Service.Loadgen.write_heavy

  (* The prefilled bindings of a client's stripe: 25k ranks chosen by
     the seed, with seeded values. *)
  let prefill ~seed ~client =
    let r = rng ~seed ~workload:id ~client:(-1 - client) in
    let p = permutation r stripe in
    Array.init (stripe / 2) (fun i -> (key_of ~client p.(i), Rng.below r (1 lsl 30)))

  type t = { g : Rng.t; client : int; shadow : (int, int) Hashtbl.t }

  let create ~seed ~client =
    let shadow = Hashtbl.create (2 * stripe) in
    Array.iter (fun (k, v) -> Hashtbl.replace shadow k v) (prefill ~seed ~client);
    { g = rng ~seed ~workload:id ~client; client; shadow }

  let next t : Service.Codec.request =
    let key = key_of ~client:t.client (Rng.below t.g stripe) in
    let p = Rng.below t.g 100 in
    let m = mix_ in
    if p < m.get_pct then Get key
    else if p < m.get_pct + m.put_pct then begin
      let value = Rng.below t.g (1 lsl 30) in
      Hashtbl.replace t.shadow key value;
      Put { key; value }
    end
    else if p < m.get_pct + m.put_pct + m.del_pct then begin
      Hashtbl.remove t.shadow key;
      Del key
    end
    else begin
      let desired = Rng.below t.g (1 lsl 30) in
      let hit = Rng.below t.g 2 = 0 in
      match Hashtbl.find_opt t.shadow key with
      | Some v ->
          let expected = if hit then v else v lxor 1 in
          if hit then Hashtbl.replace t.shadow key desired;
          Cas { key; expected; desired }
      | None -> Cas { key; expected = desired lxor 1; desired }
    end
end
