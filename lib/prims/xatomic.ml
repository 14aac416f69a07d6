let rec cas_max a v =
  let cur = Atomic.get a in
  if cur >= v then cur
  else if Atomic.compare_and_set a cur v then v
  else cas_max a v

let rec incr_if_at_least a floor =
  let cur = Atomic.get a in
  if cur < floor then false
  else if Atomic.compare_and_set a cur (cur + 1) then true
  else incr_if_at_least a floor

let rec update a f =
  let cur = Atomic.get a in
  let next = f cur in
  if Atomic.compare_and_set a cur next then cur else update a f

let wrapping_add a b = a + b

(* 16 words = 128 bytes: a cache line plus the adjacent line that
   spatial prefetchers pull in with it.  The block is the layout of an
   ['a Atomic.t] (one field, tag 0) with the extra words as padding
   behind it; every [Atomic] primitive touches field 0 only.  OCaml
   5.2's [Atomic.make_contended] builds the same block. *)
let padded_words = 16

let make_padded (v : 'a) : 'a Atomic.t =
  let b = Obj.new_block 0 padded_words in
  Obj.set_field b 0 (Obj.repr v);
  Obj.obj b

type striped = int Atomic.t array

let stripes = 8
let make_striped () = Array.init stripes (fun _ -> make_padded 0)

let striped_incr (c : striped) i =
  Atomic.incr (Array.unsafe_get c (i land (stripes - 1)))

let striped_sum (c : striped) =
  let s = ref 0 in
  for i = 0 to stripes - 1 do
    s := !s + Atomic.get (Array.unsafe_get c i)
  done;
  !s
