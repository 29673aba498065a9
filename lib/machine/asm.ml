type category =
  | Startup
  | Decode
  | Semantic
  | Translate
  | Der

let category_name = function
  | Startup -> "startup"
  | Decode -> "decode"
  | Semantic -> "semantic"
  | Translate -> "translate"
  | Der -> "der"

let all_categories = [ Startup; Decode; Semantic; Translate; Der ]

let category_index = function
  | Startup -> 0
  | Decode -> 1
  | Semantic -> 2
  | Translate -> 3
  | Der -> 4

type label = int

(* Branch-target instructions are stored with the label id in the target
   slot and patched at [finish]. *)
type pending =
  | Resolved of Host_isa.instr
  | Needs_label of (int -> Host_isa.instr) * label

type t = {
  mutable instrs : pending list; (* reversed *)
  mutable len : int;
  mutable labels : int array;
  mutable n_labels : int;
  mutable category : category;
  mutable cats : category list; (* reversed, parallel to instrs *)
}

let create () =
  {
    instrs = [];
    len = 0;
    labels = Array.make 64 (-1);
    n_labels = 0;
    category = Startup;
    cats = [];
  }

let new_label t =
  if t.n_labels = Array.length t.labels then begin
    let fresh = Array.make (2 * t.n_labels) (-1) in
    Array.blit t.labels 0 fresh 0 t.n_labels;
    t.labels <- fresh
  end;
  t.n_labels <- t.n_labels + 1;
  t.n_labels - 1

let place t label =
  if t.labels.(label) <> -1 then invalid_arg "Asm.place: label placed twice";
  t.labels.(label) <- t.len

let here t = t.len
let set_category t c = t.category <- c

let push t pending =
  t.instrs <- pending :: t.instrs;
  t.cats <- t.category :: t.cats;
  t.len <- t.len + 1

let emit t i = push t (Resolved i)
let emit_lbl t f label = push t (Needs_label (f, label))

let li t rd v = emit t (Host_isa.Li (rd, v))
let mv t rd rs = emit t (Host_isa.Mv (rd, rs))
let alu t op rd rs1 rs2 = emit t (Host_isa.Alu (op, rd, rs1, rs2))
let alui t op rd rs v = emit t (Host_isa.Alui (op, rd, rs, v))
let alu2i t op1 op2 rd rs1 rs2 v = emit t (Host_isa.Alu2i (op1, op2, rd, rs1, rs2, v))
let load t rd rs off = emit t (Host_isa.Load (rd, rs, off))
let store t rs rbase off = emit t (Host_isa.Store (rs, rbase, off))
let li_lbl t rd l = emit_lbl t (fun a -> Host_isa.Li (rd, a)) l
let jmp t l = emit_lbl t (fun a -> Host_isa.Jmp a) l
let jz t r l = emit_lbl t (fun a -> Host_isa.Jz (r, a)) l
let jnz t r l = emit_lbl t (fun a -> Host_isa.Jnz (r, a)) l
let jneg t r l = emit_lbl t (fun a -> Host_isa.Jneg (r, a)) l
let jmp_r t r = emit t (Host_isa.JmpR r)
let call t l = emit_lbl t (fun a -> Host_isa.CallL a) l
let call_addr t a = emit t (Host_isa.CallL a)
let call_r t r = emit t (Host_isa.CallR r)
let ret t = emit t Host_isa.Ret
let push_op t r = emit t (Host_isa.PushOp r)
let pop_op t r = emit t (Host_isa.PopOp r)
let get_bits t rd width = emit t (Host_isa.GetBits (rd, width))
let get_bits_r t rd rw = emit t (Host_isa.GetBitsR (rd, rw))
let decode_assist t = emit t Host_isa.DecodeAssist
let emit_short t r = emit t (Host_isa.EmitShort r)
let end_trans t = emit t Host_isa.EndTrans
let out t r = emit t (Host_isa.Out r)
let out_c t r = emit t (Host_isa.OutC r)
let halt t = emit t Host_isa.Halt
let break t msg = emit t (Host_isa.Break msg)

let routine t cat body =
  let entry = t.len in
  let saved = t.category in
  t.category <- cat;
  body ();
  t.category <- saved;
  entry

let resolve t label =
  let a = t.labels.(label) in
  if a < 0 then invalid_arg "Asm.resolve: label not placed";
  a

type program = {
  code : Host_isa.instr array;
  category_of : int array;
  derived : Uhm_derived.Derived.t;
}

let finish t =
  let instrs = Array.of_list (List.rev t.instrs) in
  let code =
    Array.map
      (function
        | Resolved i -> i
        | Needs_label (f, label) ->
            let a = t.labels.(label) in
            if a < 0 then invalid_arg "Asm.finish: unplaced label";
            f a)
      instrs
  in
  { code;
    category_of = Array.of_list (List.rev_map category_index t.cats);
    derived = Uhm_derived.Derived.create () }
