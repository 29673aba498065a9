type ('p, 'a) key = ('p * 'a) Type.Id.t

type binding = B : ('p, 'a) key * 'p * 'a -> binding

type t = binding list Atomic.t

let create () = Atomic.make []
let key () = Type.Id.make ()

let rec find : type p a. (p, a) key -> p -> binding list -> a option =
 fun key p -> function
  | [] -> None
  | B (k, q, v) :: rest -> (
      match Type.Id.provably_equal key k with
      | Some Type.Equal when p = q -> Some v
      | _ -> find key p rest)

let get t key p build =
  match find key p (Atomic.get t) with
  | Some v -> v
  | None ->
      let v = build () in
      let rec publish () =
        let bindings = Atomic.get t in
        match find key p bindings with
        | Some first -> first
        | None ->
            if Atomic.compare_and_set t bindings (B (key, p, v) :: bindings)
            then v
            else publish ()
      in
      publish ()
