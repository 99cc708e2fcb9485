(* Flat int ring, stride 4: [kind; time; a; b] per record.  [next] is
   the total number of records ever written; the slot of record [i] is
   [i mod cap], so once [next > cap] the oldest [next - cap] records
   have been overwritten. *)

let stride = 4

type t = { domain : int; buf : int array; cap : int; mutable next : int }

type entry = {
  e_domain : int;
  e_seq : int;
  e_kind : int;
  e_time : int;
  e_a : int;
  e_b : int;
}

let create ?(capacity = 8192) ~domain () =
  let cap = max 1 capacity in
  { domain; buf = Array.make (cap * stride) 0; cap; next = 0 }

let record t ~kind ~time ~a ~b =
  let base = t.next mod t.cap * stride in
  t.buf.(base) <- kind;
  t.buf.(base + 1) <- time;
  t.buf.(base + 2) <- a;
  t.buf.(base + 3) <- b;
  t.next <- t.next + 1

let record_opt t ~kind ~time ~a ~b =
  match t with None -> () | Some t -> record t ~kind ~time ~a ~b

let count t = t.next
let dropped t = if t.next > t.cap then t.next - t.cap else 0

let entries t =
  let first = if t.next > t.cap then t.next - t.cap else 0 in
  let acc = ref [] in
  for seq = t.next - 1 downto first do
    let base = seq mod t.cap * stride in
    acc :=
      {
        e_domain = t.domain;
        e_seq = seq;
        e_kind = t.buf.(base);
        e_time = t.buf.(base + 1);
        e_a = t.buf.(base + 2);
        e_b = t.buf.(base + 3);
      }
      :: !acc
  done;
  !acc

let merge probes =
  let all = List.concat_map entries probes in
  List.stable_sort
    (fun x y ->
      let c = compare x.e_time y.e_time in
      if c <> 0 then c
      else
        let c = compare x.e_domain y.e_domain in
        if c <> 0 then c else compare x.e_seq y.e_seq)
    all
