(** Static encodings of DIR programs.

    An {!encoded} value is the program as it sits in level-2 memory: a bit
    stream plus the decoder tables the interpreter or dynamic translator
    needs.  Branch and call targets inside the stream are {e bit addresses}
    (for {!Kind.Word16}, 16-bit-unit indices scaled to bit addresses), so a
    decoded stream instruction carries addresses, not instruction indices;
    {!to_program} maps them back for round-trip checks.

    Instruction layout, common to all kinds: opcode field, then operand
    fields in shape order (imm | level, offset | target | target, hops |
    args, locals, ctx).  Signed immediates are zigzag-mapped first.  The
    [Enter] instruction always uses program-wide field widths so it can be
    decoded without knowing the callee contour (see DESIGN.md). *)

type widths = {
  w_opcode : int;   (** fixed opcode width; unused by Huffman/Digram *)
  w_imm : int;      (** zigzag immediate width (Word16/Packed/Contextual) *)
  w_level : int;    (** static-hop field width *)
  w_offset : int;   (** program-wide frame-offset width *)
  w_target : int;   (** branch-target width (bit address / unit index) *)
  w_args : int;
  w_locals : int;
  w_ctx : int;      (** contour-id width in [Enter] *)
}

type contour_widths = {
  cw_level : int;
  cw_offset : int;
}

type tables =
  | T_word16 of widths
  | T_packed of widths
  | T_contextual of widths * contour_widths array
  | T_huffman of widths * Uhm_huffman.Code.t
  | T_digram of widths * Uhm_huffman.Conditional.t

type encoded = {
  kind : Kind.t;
  program : Uhm_dir.Program.t;   (** the source of the encoding *)
  bits : string;
  offsets : int array;           (** bit address of every instruction *)
  entry_addr : int;              (** bit address of the entry instruction *)
  size_bits : int;
  tables : tables;
  derived : Uhm_derived.Derived.t;
  (** the interpreters and translators generated for this encoding, and
      the runs measured on it, live here and go when it goes *)
}

exception Unencodable of string
(** A field value does not fit the kind's fixed-width format (only possible
    for {!Kind.Word16}). *)

val encode : Kind.t -> Uhm_dir.Program.t -> encoded

(** A decoded instruction: opcode plus raw field values, with branch targets
    as bit addresses. *)
type raw_instr = {
  op : Uhm_dir.Isa.opcode;
  ra : int;
  rb : int;
  rc : int;
  next_addr : int;   (** bit address of the textual successor *)
}

val decode_at : encoded -> contour:int -> digram_ctx:int -> addr:int -> raw_instr
(** [decode_at e ~contour ~digram_ctx ~addr] decodes one instruction.
    [contour] selects per-contour widths ({!Kind.Contextual} only);
    [digram_ctx] selects the opcode code ({!Kind.Digram} only; pass
    {!Uhm_dir.Static_stats.start_context} after any control transfer). *)

val to_program : encoded -> Uhm_dir.Program.t
(** Decode the whole stream back (targets remapped to instruction indices);
    equal to the original program if the codec round-trips. *)

val instr_sizes : encoded -> int array
(** Size in bits of each instruction. *)

val bits_per_instruction : encoded -> float

val index_of_addr : encoded -> int -> int
(** [index_of_addr e addr] is the instruction index starting at bit [addr].
    Raises [Not_found]. *)
