(* Seeded deterministic fault scheduling; see injector.mli.

   The generator is {!Uhm_core.Prng} (SplitMix64), whose splitting
   derives an independent stream from a parent, so every (seed, asid,
   class) triple gets its own reproducible sequence regardless of how
   the other streams are consumed.  The generator lived here until PR 7
   extracted it for the load service; the draw discipline is unchanged,
   so seeded campaign goldens are bit-identical across the move. *)

module Prng = Uhm_core.Prng

type fault_class = Dtb_tag | Psder_word | Translator | Mem_word

let all_classes = [ Dtb_tag; Psder_word; Translator; Mem_word ]

let class_name = function
  | Dtb_tag -> "dtb-tag"
  | Psder_word -> "psder-word"
  | Translator -> "translator"
  | Mem_word -> "mem-word"

let class_of_name = function
  | "dtb-tag" -> Some Dtb_tag
  | "psder-word" -> Some Psder_word
  | "translator" -> Some Translator
  | "mem-word" -> Some Mem_word
  | _ -> None

(* -- Specifications ----------------------------------------------------------- *)

type spec = {
  seed : int;
  rates : (fault_class * float) list;
  explicit : (int * int * fault_class) list;
}

let zero = { seed = 0; rates = []; explicit = [] }

let is_zero s =
  List.for_all (fun (_, r) -> r <= 0.) s.rates && s.explicit = []

let can_inject s cls =
  List.exists (fun (c, r) -> c = cls && r > 0.) s.rates
  || List.exists (fun (_, _, c) -> c = cls) s.explicit

type fault = {
  f_class : fault_class;
  f_step : int;
  f_r1 : int;
  f_r2 : int;
}

(* -- Per-program streams ------------------------------------------------------ *)

type arrival = {
  a_class : fault_class;
  a_rate : float;
  a_rng : Prng.t;
  mutable a_next : int;
}

type t = {
  arrivals : arrival list;
  mutable pending : (int * fault_class) list; (* explicit, sorted by step *)
  draw : Prng.t; (* target-selection randoms for explicit events *)
  mutable next_due : int; (* the first step anything fires at; max_int = never *)
}

let gap rng p = Prng.geometric rng ~p

let sat_add a b = if a > max_int - b then max_int else a + b

let next_due arrivals pending =
  List.fold_left
    (fun m a -> min m a.a_next)
    (match pending with (s, _) :: _ -> s | [] -> max_int)
    arrivals

let create spec ~asid =
  if asid < 0 then invalid_arg "Injector.create: negative asid";
  let root = Prng.create ~seed:spec.seed ~stream:asid in
  (* one split per declared class, in declaration order, so adding or
     removing a zero-rate entry never perturbs the other streams' draws *)
  let arrivals =
    List.filter_map
      (fun (c, p) ->
        let r = Prng.split root in
        if p <= 0. then None
        else
          let a = { a_class = c; a_rate = p; a_rng = r; a_next = 0 } in
          a.a_next <- gap a.a_rng a.a_rate;
          Some a)
      spec.rates
  in
  let pending =
    List.filter_map
      (fun (a, step, c) -> if a = asid then Some (step, c) else None)
      spec.explicit
    |> List.sort compare
  in
  { arrivals; pending; draw = Prng.split root;
    next_due = next_due arrivals pending }

(* Target randoms come from the class's own gap stream (gap, r1, r2, gap,
   ...), so the schedule AND the targets of one class are independent of
   every other class and of the polling stride.  Below [next_due] the
   poll answers without allocating: the serve path polls on every
   INTERP, and almost none of them fires anything. *)
let due t ~step =
  if step < t.next_due then []
  else begin
    let out = ref [] in
    List.iter
      (fun a ->
        while a.a_next <= step do
          out :=
            {
              f_class = a.a_class;
              f_step = a.a_next;
              f_r1 = Prng.next_int a.a_rng;
              f_r2 = Prng.next_int a.a_rng;
            }
            :: !out;
          a.a_next <- sat_add a.a_next (gap a.a_rng a.a_rate)
        done)
      t.arrivals;
    let rec take () =
      match t.pending with
      | (s, c) :: rest when s <= step ->
          t.pending <- rest;
          out :=
            { f_class = c; f_step = s; f_r1 = Prng.next_int t.draw;
              f_r2 = Prng.next_int t.draw }
            :: !out;
          take ()
      | _ -> ()
    in
    take ();
    t.next_due <- next_due t.arrivals t.pending;
    (* firing order is by step, stable across classes *)
    List.stable_sort
      (fun a b -> compare a.f_step b.f_step)
      (List.rev !out)
  end
