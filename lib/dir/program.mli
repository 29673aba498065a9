(** DIR programs: code plus the contour table that contextual encoding and
    the runtime need.

    A {e contour} (Johnston's term, adopted by the paper in §3.2) is one
    lexical scope — here, one procedure body or the main program body.  The
    contextual encoder sizes the operand fields of an instruction from the
    contour it belongs to, so the table records, per contour, how many
    static levels are visible and how wide the widest frame offset is. *)

type contour = {
  id : int;
  name : string;       (** procedure name, or ["<main>"] *)
  depth : int;         (** static nesting depth; main = 0 *)
  n_args : int;
  n_locals : int;      (** locals including array storage, in words *)
  max_offset : int;    (** largest frame offset referenced from this contour *)
}

type t = {
  name : string;
  code : Isa.instr array;
  entry : int;                (** index of the first instruction of main *)
  contours : contour array;   (** contour 0 is the main body *)
  contour_map : int array option;
  (** exact contour id per instruction, when the producer (the compiler)
      knows it; [None] falls back to the scan heuristic of
      {!contour_of_instr} *)
  derived : Uhm_derived.Derived.t;
  (** what is built from this program — its encodings, its DER expansion,
      its reference step count — lives here, and goes when it goes *)
}

val make : ?contour_map:int array -> name:string -> code:Isa.instr array
  -> entry:int -> contours:contour array -> unit -> t

val validate : t -> (unit, string) result
(** Structural sanity: targets in range, [Enter] contour ids valid, entry in
    range, every [Call] lands on an [Enter], hop counts within depth, code
    non-empty, final instruction of every path cannot run off the end
    (conservatively: the last instruction does not fall through). *)

val validate_exn : t -> t
(** [validate_exn p] is [p]; raises [Invalid_argument] when invalid. *)

val contour_of_instr : t -> int array
(** [contour_of_instr p] maps each instruction index to the contour id it
    belongs to, derived from [Enter] markers: an [Enter] opens its contour,
    which extends to the next [Enter]; instructions before the first [Enter]
    (the main preamble, if any) and from [entry] on belong to contour 0. *)

val listing : t -> string
(** Human-readable disassembly with indices and contour annotations. *)

val size_instructions : t -> int

val max_level : t -> int
(** Deepest static nesting depth in the program. *)
