(** Host-code assembler: builds long-format code with labels, forward
    references and per-routine cycle-accounting categories.

    Every emitted instruction is tagged with the {!category} in force, so
    the engine can attribute cycles to the paper's cost components: [d]
    (decode + dispatch), [x] (semantic routines), [g] (translation
    generation). *)

type category =
  | Startup     (* runtime initialisation *)
  | Decode      (* instruction decode and dispatch *)
  | Semantic    (* semantic routines: the real work, the paper's x *)
  | Translate   (* PSDER generation in the dynamic translator, the paper's g *)
  | Der         (* statically expanded machine code (the DER strategy) *)

val category_name : category -> string
val all_categories : category list

val category_index : category -> int
(** A category's position in {!all_categories}. *)

type t
type label

val create : unit -> t

val new_label : t -> label
val place : t -> label -> unit
val here : t -> int
(** Current emission address. *)

val set_category : t -> category -> unit

val routine : t -> category -> (unit -> unit) -> int
(** [routine b cat body] places a fresh label, switches to [cat], runs
    [body] (which emits the routine's instructions), restores the previous
    category, and returns the routine's entry address. *)

(** {2 Emission helpers} — one per {!Host_isa.instr} constructor; branch and
    call targets are labels. *)

val li : t -> Host_isa.reg -> int -> unit
val li_lbl : t -> Host_isa.reg -> label -> unit
(** Load a label's resolved address as an immediate (DER return points). *)
val mv : t -> Host_isa.reg -> Host_isa.reg -> unit
val alu : t -> Host_isa.alu_op -> Host_isa.reg -> Host_isa.reg -> Host_isa.reg -> unit
val alui : t -> Host_isa.alu_op -> Host_isa.reg -> Host_isa.reg -> int -> unit
val alu2i : t -> Host_isa.alu_op -> Host_isa.alu_op -> Host_isa.reg
  -> Host_isa.reg -> Host_isa.reg -> int -> unit
(** One-transaction compound operation (the restructurable-datapath
    feature of paper section 6.1). *)
val load : t -> Host_isa.reg -> Host_isa.reg -> int -> unit
val store : t -> Host_isa.reg -> Host_isa.reg -> int -> unit
val jmp : t -> label -> unit
val jz : t -> Host_isa.reg -> label -> unit
val jnz : t -> Host_isa.reg -> label -> unit
val jneg : t -> Host_isa.reg -> label -> unit
val jmp_r : t -> Host_isa.reg -> unit
val call : t -> label -> unit
val call_addr : t -> int -> unit
(** Call a routine whose absolute address is already known. *)

val call_r : t -> Host_isa.reg -> unit
val ret : t -> unit
val push_op : t -> Host_isa.reg -> unit
val pop_op : t -> Host_isa.reg -> unit
val get_bits : t -> Host_isa.reg -> int -> unit
val get_bits_r : t -> Host_isa.reg -> Host_isa.reg -> unit
val decode_assist : t -> unit
val emit_short : t -> Host_isa.reg -> unit
val end_trans : t -> unit
val out : t -> Host_isa.reg -> unit
val out_c : t -> Host_isa.reg -> unit
val halt : t -> unit
val break : t -> string -> unit

type program = {
  code : Host_isa.instr array;
  category_of : int array;
  (** the {!category_index} of each instruction's category *)
  derived : Uhm_derived.Derived.t;
  (** products built from this code — the threaded backend's closure
      table — shared by every machine that runs it *)
}

val finish : t -> program
(** Resolves all label references.  Raises [Invalid_argument] on an
    unplaced label. *)

val resolve : t -> label -> int
(** Address of a placed label (after the fact); raises if unplaced. *)
