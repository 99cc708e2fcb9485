type ('i, 'r) stages = {
  iterations : int;
  init : int array;
  produce : int -> 'i;
  transform : read:(int -> int) -> write:(int -> int -> unit) -> 'i -> 'r;
  consume : Buffer.t -> int -> 'r -> unit;
  finish : read:(int -> int) -> Buffer.t -> unit;
}

type t = Pipeline : ('i, 'r) stages -> t

let iterations (Pipeline s) = s.iterations

(* Stay inside OCaml's 63-bit int so the digest is identical on every
   box: combine with multiplicative mixing and mask to 62 bits. *)
let mask62 = (1 lsl 62) - 1

let mix h x =
  let h = (h lxor (x * 0x1E3779B97F4A7C15)) land mask62 in
  let h = (h * 0x2545F4914F6CDD1D) land mask62 in
  h lxor (h lsr 31)

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let hex v = Printf.sprintf "%016x" (v land mask62)

let run_seq (Pipeline s) =
  let buf = Buffer.create 4096 in
  let store = Spec_store.create ~forwarding:false s.init in
  let log = Spec_store.log_create () in
  let read loc = Spec_store.committed store loc and write loc v = Spec_store.write log loc v in
  for i = 0 to s.iterations - 1 do
    let item = s.produce i in
    Spec_store.start log ~iteration:i;
    let r = s.transform ~read ~write item in
    Spec_store.commit store log;
    s.consume buf i r
  done;
  s.finish ~read buf;
  Buffer.contents buf
