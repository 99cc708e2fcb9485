type ('i, 'r) stages = {
  iterations : int;
  produce : int -> 'i;
  transform : 'i -> 'r;
  consume : Buffer.t -> int -> 'r -> unit;
  finish : Buffer.t -> unit;
}

type ('i, 'r) spec_stages = {
  sp_iterations : int;
  sp_init : int array;
  sp_produce : int -> 'i;
  sp_exec : read:(int -> int) -> 'i -> (int * int) list * 'r;
  sp_consume : Buffer.t -> int -> 'r -> unit;
  sp_finish : read:(int -> int) -> Buffer.t -> unit;
}

type t =
  | Pure : ('i, 'r) stages -> t
  | Spec : ('i, 'r) spec_stages -> t

let iterations = function
  | Pure s -> s.iterations
  | Spec s -> s.sp_iterations

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

let run_seq t =
  let buf = Buffer.create 4096 in
  (match t with
  | Pure s ->
    for i = 0 to s.iterations - 1 do
      s.consume buf i (s.transform (s.produce i))
    done;
    s.finish buf
  | Spec s ->
    let store = Array.copy s.sp_init in
    let read loc = store.(loc) in
    for i = 0 to s.sp_iterations - 1 do
      let item = s.sp_produce i in
      let writes, r = s.sp_exec ~read item in
      List.iter (fun (loc, v) -> store.(loc) <- v) writes;
      s.sp_consume buf i r
    done;
    s.sp_finish ~read buf);
  Buffer.contents buf
