type 'a t = {
  mutable front : 'a list;
  mutable back : 'a list;
  mutable len : int;
  mutable walked : int;  (* list cells traversed, for [walked] *)
}

let create () = { front = []; back = []; len = 0; walked = 0 }

let length d = d.len

let walked d = d.walked

let is_empty d = d.len = 0

let push_back d x =
  d.back <- x :: d.back;
  d.len <- d.len + 1

let push_front d x =
  d.front <- x :: d.front;
  d.len <- d.len + 1

(* Move the reversed tail to the head when the head runs dry; each
   element is reversed at most once between its push and its pop. *)
let normalize d =
  match d.front with
  | [] ->
    d.walked <- d.walked + d.len;
    d.front <- List.rev d.back;
    d.back <- []
  | _ :: _ -> ()

let peek_front d =
  normalize d;
  match d.front with [] -> None | x :: _ -> Some x

let pop_front d =
  normalize d;
  match d.front with
  | [] -> None
  | x :: rest ->
    d.front <- rest;
    d.len <- d.len - 1;
    Some x

(* Mirror image of [normalize] for the back end. *)
let normalize_back d =
  match d.back with
  | [] ->
    d.walked <- d.walked + d.len;
    d.back <- List.rev d.front;
    d.front <- []
  | _ :: _ -> ()

let peek_back d =
  normalize_back d;
  match d.back with [] -> None | x :: _ -> Some x

let pop_back d =
  normalize_back d;
  match d.back with
  | [] -> None
  | x :: rest ->
    d.back <- rest;
    d.len <- d.len - 1;
    Some x

let clear d =
  d.front <- [];
  d.back <- [];
  d.len <- 0

let to_list d =
  d.walked <- d.walked + d.len;
  d.front @ List.rev d.back
