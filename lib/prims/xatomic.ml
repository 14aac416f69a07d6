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
   spatial prefetchers pull in with it.  A padded block is the record's
   own layout (tag 0, its fields first) with the extra words as padding
   behind them; field accesses touch only the leading fields.  Only
   plain records (tag 0) qualify: a float record's fields are unboxed
   doubles, and any other tag has a meaning of its own. *)
let padded_words = 16

let pad_record (r : 'a) : 'a =
  let o = Obj.repr r in
  if Obj.is_int o || Obj.tag o <> 0 then
    invalid_arg "Xatomic.pad_record: not a plain record";
  let n = Obj.size o in
  if n >= padded_words then r
  else begin
    let b = Obj.new_block 0 padded_words in
    for i = 0 to n - 1 do
      Obj.set_field b i (Obj.field o i)
    done;
    Obj.obj b
  end

(* An ['a Atomic.t] is a one-field tag-0 block, and every [Atomic]
   primitive touches field 0 only; OCaml 5.2's [Atomic.make_contended]
   builds the same block. *)
let make_padded (v : 'a) : 'a Atomic.t = pad_record (Atomic.make v)

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
