(* The long-format host instruction set (IU1).

   This is the "greatest common divisor" machine of paper §6.1: a primitive
   register ISA with the interpretation aids the paper calls for — powerful
   bit-field extraction from the instruction stream (GetBits, the B1700-style
   bit-addressable fetch unit), table look-up support (indexed loads plus
   indirect jumps/calls), operand and return stacks, and the DTB-specific
   assists of §6.2 (EmitShort/EndTrans, the hardware-managed translation
   emission of the dynamic translator).

   Register conventions (see also [Regs]): r0-r15 general purpose,
   r16-r23 special (operand/return stack pointers, frame pointer, data top,
   DIR program counter, contour register, digram-context register). *)

type reg = int [@@deriving eq, show]

module Regs = struct
  let n = 24
  let sp = 16     (* operand stack pointer (grows up) *)
  let rsp = 17    (* return stack pointer (grows up) *)
  let fp = 18     (* current DIR frame base *)
  let dtop = 19   (* first free word of the DIR data area *)
  let dpc = 20    (* DIR program counter, a bit address *)
  let ctx = 21    (* current contour id (contextual decoding) *)
  let dctx = 22   (* digram decoding context *)
  let tr = 23     (* translator scratch: current translation's DIR address *)

  let name r =
    match r with
    | 16 -> "sp"
    | 17 -> "rsp"
    | 18 -> "fp"
    | 19 -> "dtop"
    | 20 -> "dpc"
    | 21 -> "ctx"
    | 22 -> "dctx"
    | 23 -> "tr"
    | r -> Printf.sprintf "r%d" r
end

type alu_op =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | And
  | Or
  | Xor
  | Shl
  | Shr          (* arithmetic right shift *)
  | Slt
  | Sle
  | Seq
  | Sne
  | Sgt
  | Sge
[@@deriving eq, show { with_path = false }]

type instr =
  | Li of reg * int
  | Mv of reg * reg
  | Alu of alu_op * reg * reg * reg    (* rd <- rs1 op rs2 *)
  | Alui of alu_op * reg * reg * int   (* rd <- rs op imm *)
  | Alu2i of alu_op * alu_op * reg * reg * reg * int
      (* rd <- (rs1 op1 rs2) op2 imm, in one register-to-register
         transaction: the paper's restructurable datapath (section 6.1),
         where "more significant transformations could be performed in one
         register-to-register transaction" *)
  | Load of reg * reg * int            (* rd <- mem[rs + off] *)
  | Store of reg * reg * int           (* mem[rbase + off] <- rs *)
  | Jmp of int
  | Jz of reg * int
  | Jnz of reg * int
  | Jneg of reg * int                  (* branch if rs < 0 (decode-tree leaf) *)
  | JmpR of reg                        (* computed jump (dispatch tables) *)
  | CallL of int                       (* push return address, jump *)
  | CallR of reg
  | Ret                                (* pop return address; may resume IU2 *)
  | PushOp of reg
  | PopOp of reg
  | GetBits of reg * int               (* rd <- next n bits at dpc; dpc += n *)
  | GetBitsR of reg * reg              (* width taken from a register *)
  | DecodeAssist                       (* hardware decode unit: decodes the
                                          instruction at dpc into r8-r11 and
                                          advances dpc (paper section 8's
                                          "powerful hardware aids") *)
  | EmitShort of reg                   (* append a short word (translation) *)
  | EndTrans                           (* finish translation, enter it (IU2) *)
  | Out of reg                         (* append decimal + newline to output *)
  | OutC of reg                        (* append a character to output *)
  | Halt
  | Break of string                    (* runtime error: trap with message *)
[@@deriving eq, show { with_path = false }]

(* Size convention for the space axis of Figure 1: one long-format
   (horizontal) instruction occupies 32 bits. *)
let bits_per_instr = 32
