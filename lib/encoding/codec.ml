module Isa = Uhm_dir.Isa
module Program = Uhm_dir.Program
module Stats = Uhm_dir.Static_stats
module Bits = Uhm_bitstream.Bits
module Writer = Uhm_bitstream.Writer
module Reader = Uhm_bitstream.Reader
module Code = Uhm_huffman.Code
module Conditional = Uhm_huffman.Conditional

type widths = {
  w_opcode : int;
  w_imm : int;
  w_level : int;
  w_offset : int;
  w_target : int;
  w_args : int;
  w_locals : int;
  w_ctx : int;
}

type contour_widths = {
  cw_level : int;
  cw_offset : int;
}

type tables =
  | T_word16 of widths
  | T_packed of widths
  | T_contextual of widths * contour_widths array
  | T_huffman of widths * Code.t
  | T_digram of widths * Conditional.t

type encoded = {
  kind : Kind.t;
  program : Program.t;
  bits : string;
  offsets : int array;
  entry_addr : int;
  size_bits : int;
  tables : tables;
  derived : Uhm_derived.Derived.t;
}

exception Unencodable of string

let unencodable fmt = Printf.ksprintf (fun s -> raise (Unencodable s)) fmt

(* -- Nibble-chain variable-width coding ------------------------------------ *)
(* A non-negative value is sent as (groups - 1) in unary followed by
   4 * groups bits.  Small values (the common case for operands) cost 5
   bits; the length grows gracefully. *)

let nibble_groups v = max 1 ((Bits.width_of_value v + 3) / 4)
let nibble_size v = nibble_groups v + (4 * nibble_groups v)

let put_nibble w v =
  let groups = nibble_groups v in
  Writer.put_unary w (groups - 1);
  Writer.put w ~bits:(4 * groups) v

let get_nibble r =
  let groups = Reader.get_unary r + 1 in
  Reader.get r (4 * groups)

(* -- Width computation ------------------------------------------------------ *)

let max_over values f = List.fold_left (fun acc v -> max acc (f v)) 0 values

let enter_maxima (p : Program.t) =
  Array.fold_left
    (fun (args, locals, hops) { Isa.op; a; b; _ } ->
      match op with
      | Isa.Enter -> (max args a, max locals b, hops)
      | Isa.Call -> (args, locals, max hops b)
      | _ -> (args, locals, hops))
    (0, 0, 0) p.Program.code

let base_widths (p : Program.t) (stats : Stats.t) ~w_target =
  let max_args, max_locals, max_hops = enter_maxima p in
  let max_zig = max_over stats.Stats.imm_values (fun v -> Bits.zigzag v) in
  {
    w_opcode = Bits.width_for Isa.opcode_count;
    w_imm = Bits.width_of_value max_zig;
    w_level = Bits.width_of_value (max (Stats.max_level stats) max_hops);
    w_offset = Bits.width_of_value (Stats.max_offset stats);
    w_target;
    w_args = Bits.width_of_value max_args;
    w_locals = Bits.width_of_value max_locals;
    w_ctx = Bits.width_for (Array.length p.Program.contours);
  }

let contour_width_table (p : Program.t) =
  let map = Program.contour_of_instr p in
  let n = Array.length p.Program.contours in
  let max_level = Array.make n 0 and max_offset = Array.make n 0 in
  Array.iteri
    (fun i { Isa.op; a; b; _ } ->
      let ctx = map.(i) in
      match Isa.shape op with
      | Isa.Shape_var ->
          max_level.(ctx) <- max max_level.(ctx) a;
          max_offset.(ctx) <- max max_offset.(ctx) b
      | Isa.Shape_call -> max_level.(ctx) <- max max_level.(ctx) b
      | _ -> ())
    p.Program.code;
  Array.init n (fun ctx ->
      {
        cw_level = Bits.width_of_value max_level.(ctx);
        cw_offset = Bits.width_of_value max_offset.(ctx);
      })

(* Unused-context rows of the digram table would be all-zero; give them a
   dummy codeword so construction succeeds (they are never consulted). *)
let digram_codes (stats : Stats.t) =
  let counts =
    Array.map
      (fun row ->
        if Array.for_all (fun c -> c = 0) row then begin
          let row = Array.copy row in
          row.(0) <- 1;
          row
        end
        else row)
      stats.Stats.digram_counts
  in
  Conditional.of_counts ~smooth:false counts

(* -- Per-instruction size --------------------------------------------------- *)

(* Size of instruction [i] in bits, given the opcode-field cost function and
   the widths in force at [i]. *)
let instr_size ~opcode_bits ~variable_operands ~(w : widths) ~cw instr =
  let { Isa.op; a; b; _ } = instr in
  let level_w = match cw with Some c -> c.cw_level | None -> w.w_level in
  let offset_w = match cw with Some c -> c.cw_offset | None -> w.w_offset in
  let operand_bits =
    match Isa.shape op with
    | Isa.Shape_none -> 0
    | Isa.Shape_imm ->
        if variable_operands then nibble_size (Bits.zigzag a) else w.w_imm
    | Isa.Shape_var ->
        if variable_operands then w.w_level + nibble_size b
        else level_w + offset_w
    | Isa.Shape_target -> w.w_target
    | Isa.Shape_call -> w.w_target + level_w
    | Isa.Shape_enter ->
        if variable_operands then nibble_size a + nibble_size b + w.w_ctx
        else w.w_args + w.w_locals + w.w_ctx
  in
  opcode_bits op + operand_bits

(* Word16 operand fields are one 16-bit unit; the value 0xFFFF escapes to a
   four-unit (62-bit) wide operand.  Branch targets never escape (checked at
   encode time), so instruction sizes do not depend on target values. *)
let u16_escape = 0xFFFF

let u16_field_units v = if v >= 0 && v < u16_escape then 1 else 5

let word16_units instr =
  let { Isa.op; a; b; c } = instr in
  match Isa.shape op with
  | Isa.Shape_none -> 1
  | Isa.Shape_imm -> 1 + u16_field_units (Bits.zigzag a)
  | Isa.Shape_var -> 1 + u16_field_units a + u16_field_units b
  | Isa.Shape_target -> 2
  | Isa.Shape_call -> 2 + u16_field_units b
  | Isa.Shape_enter ->
      1 + u16_field_units a + u16_field_units b + u16_field_units c

(* -- Encoding ---------------------------------------------------------------- *)

let check_u16_target what v =
  if v < 0 || v >= u16_escape then
    unencodable "word16: %s value %d does not fit in 16 bits" what v

let put_u16_field w v =
  if v < 0 then unencodable "word16: negative field value %d" v;
  if v < u16_escape then Writer.put w ~bits:16 v
  else begin
    Writer.put w ~bits:16 u16_escape;
    Writer.put w ~bits:16 ((v lsr 48) land 0x3FFF);
    Writer.put w ~bits:16 ((v lsr 32) land 0xFFFF);
    Writer.put w ~bits:16 ((v lsr 16) land 0xFFFF);
    Writer.put w ~bits:16 (v land 0xFFFF)
  end

let get_u16_field r =
  let v = Reader.get r 16 in
  if v <> u16_escape then v
  else
    let a = Reader.get r 16 in
    let b = Reader.get r 16 in
    let c = Reader.get r 16 in
    let d = Reader.get r 16 in
    (a lsl 48) lor (b lsl 32) lor (c lsl 16) lor d

let encode kind (p : Program.t) =
  let stats = Stats.of_program p in
  let code = p.Program.code in
  let n = Array.length code in
  let contour_map = Program.contour_of_instr p in
  let digram_ctxs = Stats.digram_contexts p in
  match kind with
  | Kind.Word16 ->
      let sizes = Array.map (fun i -> 16 * word16_units i) code in
      let offsets = Array.make n 0 in
      let total = ref 0 in
      Array.iteri
        (fun i s ->
          offsets.(i) <- !total;
          total := !total + s)
        sizes;
      let unit_of_target t = offsets.(t) / 16 in
      let w = Writer.create () in
      Array.iter
        (fun ({ Isa.op; a; b; c } as instr) ->
          Writer.put w ~bits:16 (Isa.opcode_to_enum op lsl 10);
          (match Isa.shape op with
          | Isa.Shape_none -> ()
          | Isa.Shape_imm -> put_u16_field w (Bits.zigzag a)
          | Isa.Shape_var ->
              put_u16_field w a;
              put_u16_field w b
          | Isa.Shape_target ->
              check_u16_target "target" (unit_of_target a);
              Writer.put w ~bits:16 (unit_of_target a)
          | Isa.Shape_call ->
              check_u16_target "target" (unit_of_target a);
              Writer.put w ~bits:16 (unit_of_target a);
              put_u16_field w b
          | Isa.Shape_enter ->
              put_u16_field w a;
              put_u16_field w b;
              put_u16_field w c);
          ignore instr)
        code;
      let widths =
        { (base_widths p stats ~w_target:16) with w_opcode = 6 }
      in
      {
        kind;
        program = p;
        bits = Writer.to_reader_input w;
        offsets;
        entry_addr = offsets.(p.Program.entry);
        size_bits = !total;
        tables = T_word16 widths;
        derived = Uhm_derived.Derived.create ();
      }
  | Kind.Packed | Kind.Contextual | Kind.Huffman | Kind.Huffman_b1700
  | Kind.Digram ->
      let contour_tab =
        match kind with
        | Kind.Contextual -> Some (contour_width_table p)
        | _ -> None
      in
      let opcode_code =
        match kind with
        | Kind.Huffman -> Some (Code.of_frequencies stats.Stats.opcode_counts)
        | Kind.Huffman_b1700 ->
            Some
              (Uhm_huffman.Restricted.of_frequencies
                 ~allowed:Uhm_huffman.Restricted.b1700_lengths
                 stats.Stats.opcode_counts)
        | _ -> None
      in
      let digram_code =
        match kind with Kind.Digram -> Some (digram_codes stats) | _ -> None
      in
      let opcode_bits i op =
        match kind with
        | Kind.Huffman | Kind.Huffman_b1700 ->
            let len, _ = Code.codeword (Option.get opcode_code) (Isa.opcode_to_enum op) in
            len
        | Kind.Digram ->
            let len, _ =
              Code.codeword
                (Conditional.code (Option.get digram_code) digram_ctxs.(i))
                (Isa.opcode_to_enum op)
            in
            len
        | _ -> Bits.width_for Isa.opcode_count
      in
      let variable_operands =
        match kind with
        | Kind.Huffman | Kind.Huffman_b1700 | Kind.Digram -> true
        | _ -> false
      in
      (* Fixpoint on the target-field width: sizes depend on it, it depends
         on the total size. *)
      let rec settle w_target =
        let widths = base_widths p stats ~w_target in
        let total = ref 0 in
        Array.iteri
          (fun i instr ->
            let cw =
              Option.map (fun tab -> tab.(contour_map.(i))) contour_tab
            in
            total :=
              !total
              + instr_size
                  ~opcode_bits:(opcode_bits i)
                  ~variable_operands ~w:widths ~cw instr)
          code;
        let needed = max 1 (Bits.width_for !total) in
        if needed > w_target then settle needed else (widths, !total)
      in
      let widths, total = settle 1 in
      let offsets = Array.make n 0 in
      let running = ref 0 in
      Array.iteri
        (fun i instr ->
          offsets.(i) <- !running;
          let cw = Option.map (fun tab -> tab.(contour_map.(i))) contour_tab in
          running :=
            !running
            + instr_size
                ~opcode_bits:(opcode_bits i)
                ~variable_operands ~w:widths ~cw instr)
        code;
      assert (!running = total);
      let w = Writer.create () in
      Array.iteri
        (fun i ({ Isa.op; a; b; c } as _instr) ->
          (match kind with
          | Kind.Huffman | Kind.Huffman_b1700 ->
              Code.encode (Option.get opcode_code) w (Isa.opcode_to_enum op)
          | Kind.Digram ->
              Conditional.encode (Option.get digram_code) w
                ~ctx:digram_ctxs.(i) (Isa.opcode_to_enum op)
          | _ -> Writer.put w ~bits:widths.w_opcode (Isa.opcode_to_enum op));
          let cw = Option.map (fun tab -> tab.(contour_map.(i))) contour_tab in
          let level_w =
            match cw with Some t -> t.cw_level | None -> widths.w_level
          in
          let offset_w =
            match cw with Some t -> t.cw_offset | None -> widths.w_offset
          in
          match Isa.shape op with
          | Isa.Shape_none -> ()
          | Isa.Shape_imm ->
              if variable_operands then put_nibble w (Bits.zigzag a)
              else Writer.put w ~bits:widths.w_imm (Bits.zigzag a)
          | Isa.Shape_var ->
              if variable_operands then begin
                Writer.put w ~bits:widths.w_level a;
                put_nibble w b
              end
              else begin
                Writer.put w ~bits:level_w a;
                Writer.put w ~bits:offset_w b
              end
          | Isa.Shape_target -> Writer.put w ~bits:widths.w_target offsets.(a)
          | Isa.Shape_call ->
              Writer.put w ~bits:widths.w_target offsets.(a);
              Writer.put w ~bits:level_w b
          | Isa.Shape_enter ->
              if variable_operands then begin
                put_nibble w a;
                put_nibble w b;
                Writer.put w ~bits:widths.w_ctx c
              end
              else begin
                Writer.put w ~bits:widths.w_args a;
                Writer.put w ~bits:widths.w_locals b;
                Writer.put w ~bits:widths.w_ctx c
              end)
        code;
      let tables =
        match kind with
        | Kind.Packed -> T_packed widths
        | Kind.Contextual -> T_contextual (widths, Option.get contour_tab)
        | Kind.Huffman | Kind.Huffman_b1700 ->
            T_huffman (widths, Option.get opcode_code)
        | Kind.Digram -> T_digram (widths, Option.get digram_code)
        | Kind.Word16 -> assert false
      in
      {
        kind;
        program = p;
        bits = Writer.to_reader_input w;
        offsets;
        entry_addr = offsets.(p.Program.entry);
        size_bits = total;
        tables;
        derived = Uhm_derived.Derived.create ();
      }

(* -- Decoding ---------------------------------------------------------------- *)

type raw_instr = {
  op : Isa.opcode;
  ra : int;
  rb : int;
  rc : int;
  next_addr : int;
}

let opcode_of_enum_exn e =
  match Isa.opcode_of_enum e with
  | Some op -> op
  | None -> failwith (Printf.sprintf "decode: bad opcode %d" e)

let decode_at (e : encoded) ~contour ~digram_ctx ~addr =
  let r = Reader.of_string e.bits in
  Reader.seek r addr;
  match e.tables with
  | T_word16 _ ->
      let op = opcode_of_enum_exn (Reader.get r 16 lsr 10) in
      let field () = get_u16_field r in
      let ra, rb, rc =
        match Isa.shape op with
        | Isa.Shape_none -> (0, 0, 0)
        | Isa.Shape_imm -> (Bits.unzigzag (field ()), 0, 0)
        | Isa.Shape_var ->
            let a = field () in
            let b = field () in
            (a, b, 0)
        | Isa.Shape_target -> (field () * 16, 0, 0)
        | Isa.Shape_call ->
            let t = field () * 16 in
            let hops = field () in
            (t, hops, 0)
        | Isa.Shape_enter ->
            let a = field () in
            let b = field () in
            let c = field () in
            (a, b, c)
      in
      { op; ra; rb; rc; next_addr = Reader.pos r }
  | T_packed w | T_contextual (w, _) | T_huffman (w, _) | T_digram (w, _) -> (
      let cw =
        match e.tables with
        | T_contextual (_, tab) -> Some tab.(contour)
        | _ -> None
      in
      let variable_operands =
        match e.tables with T_huffman _ | T_digram _ -> true | _ -> false
      in
      let op =
        match e.tables with
        | T_huffman (_, code) -> opcode_of_enum_exn (Code.decode code r)
        | T_digram (_, cond) ->
            opcode_of_enum_exn (Conditional.decode cond r ~ctx:digram_ctx)
        | _ -> opcode_of_enum_exn (Reader.get r w.w_opcode)
      in
      let level_w = match cw with Some t -> t.cw_level | None -> w.w_level in
      let offset_w = match cw with Some t -> t.cw_offset | None -> w.w_offset in
      let finish ra rb rc = { op; ra; rb; rc; next_addr = Reader.pos r } in
      match Isa.shape op with
      | Isa.Shape_none -> finish 0 0 0
      | Isa.Shape_imm ->
          if variable_operands then finish (Bits.unzigzag (get_nibble r)) 0 0
          else finish (Bits.unzigzag (Reader.get r w.w_imm)) 0 0
      | Isa.Shape_var ->
          if variable_operands then begin
            let a = Reader.get r w.w_level in
            let b = get_nibble r in
            finish a b 0
          end
          else begin
            let a = Reader.get r level_w in
            let b = Reader.get r offset_w in
            finish a b 0
          end
      | Isa.Shape_target -> finish (Reader.get r w.w_target) 0 0
      | Isa.Shape_call ->
          let t = Reader.get r w.w_target in
          let hops = Reader.get r level_w in
          finish t hops 0
      | Isa.Shape_enter ->
          if variable_operands then begin
            let a = get_nibble r in
            let b = get_nibble r in
            let c = Reader.get r w.w_ctx in
            finish a b c
          end
          else begin
            let a = Reader.get r w.w_args in
            let b = Reader.get r w.w_locals in
            let c = Reader.get r w.w_ctx in
            finish a b c
          end)

let index_of_addr e addr =
  (* binary search over the sorted offsets array *)
  let offsets = e.offsets in
  let lo = ref 0 and hi = ref (Array.length offsets - 1) in
  let result = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if offsets.(mid) = addr then begin
      result := mid;
      lo := !hi + 1
    end
    else if offsets.(mid) < addr then lo := mid + 1
    else hi := mid - 1
  done;
  if !result < 0 then raise Not_found else !result

let to_program (e : encoded) =
  let p = e.program in
  let contour_map = Program.contour_of_instr p in
  let digram_ctxs = Stats.digram_contexts p in
  let code =
    Array.mapi
      (fun i _ ->
        let raw =
          decode_at e ~contour:contour_map.(i) ~digram_ctx:digram_ctxs.(i)
            ~addr:e.offsets.(i)
        in
        let a =
          match Isa.shape raw.op with
          | Isa.Shape_target | Isa.Shape_call -> index_of_addr e raw.ra
          | _ -> raw.ra
        in
        { Isa.op = raw.op; a; b = raw.rb; c = raw.rc })
      p.Program.code
  in
  Program.make ?contour_map:p.Program.contour_map ~name:p.Program.name ~code
    ~entry:p.Program.entry ~contours:p.Program.contours ()

let instr_sizes (e : encoded) =
  let n = Array.length e.offsets in
  Array.init n (fun i ->
      if i + 1 < n then e.offsets.(i + 1) - e.offsets.(i)
      else e.size_bits - e.offsets.(i))

let bits_per_instruction (e : encoded) =
  if Array.length e.offsets = 0 then 0.
  else float_of_int e.size_bits /. float_of_int (Array.length e.offsets)
