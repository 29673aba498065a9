type contour = {
  id : int;
  name : string;
  depth : int;
  n_args : int;
  n_locals : int;
  max_offset : int;
}

type t = {
  name : string;
  code : Isa.instr array;
  entry : int;
  contours : contour array;
  contour_map : int array option;
  derived : Uhm_derived.Derived.t;
}

let make ?contour_map ~name ~code ~entry ~contours () =
  { name; code; entry; contours; contour_map;
    derived = Uhm_derived.Derived.create () }

let size_instructions t = Array.length t.code

let max_level t =
  Array.fold_left (fun acc c -> max acc c.depth) 0 t.contours

let contour_of_instr t =
  match t.contour_map with
  | Some map -> Array.copy map
  | None ->
      let n = Array.length t.code in
      let result = Array.make n 0 in
      let current = ref 0 in
      for i = 0 to n - 1 do
        (match t.code.(i).Isa.op with
        | Isa.Enter -> current := t.code.(i).Isa.c
        | _ -> ());
        result.(i) <- (if i >= t.entry then 0 else !current)
      done;
      result

let validate t =
  let n = Array.length t.code in
  let n_contours = Array.length t.contours in
  let error fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_instr i { Isa.op; a; b; c } =
    match Isa.shape op with
    | Isa.Shape_none -> Ok ()
    | Isa.Shape_imm -> Ok ()
    | Isa.Shape_var ->
        if a < 0 then error "instr %d: negative hop count" i
        else if b < 0 then error "instr %d: negative offset" i
        else Ok ()
    | Isa.Shape_target ->
        if a < 0 || a >= n then error "instr %d: target %d out of range" i a
        else Ok ()
    | Isa.Shape_call ->
        if a < 0 || a >= n then error "instr %d: call target %d out of range" i a
        else if not (Isa.equal_opcode t.code.(a).Isa.op Isa.Enter) then
          error "instr %d: call target %d is not an enter" i a
        else if b < 0 then error "instr %d: negative static hops" i
        else Ok ()
    | Isa.Shape_enter ->
        if a < 0 || b < 0 then error "instr %d: negative enter counts" i
        else if c < 0 || c >= n_contours then
          error "instr %d: contour id %d out of range" i c
        else Ok ()
  in
  let rec check_all i =
    if i >= n then Ok ()
    else
      match check_instr i t.code.(i) with
      | Error _ as e -> e
      | Ok () -> check_all (i + 1)
  in
  if n = 0 then error "empty program"
  else if n_contours = 0 then error "no contours"
  else if t.entry < 0 || t.entry >= n then error "entry %d out of range" t.entry
  else if Isa.falls_through t.code.(n - 1).Isa.op then
    error "last instruction can fall off the end of the code"
  else check_all 0

let validate_exn t =
  match validate t with
  | Ok () -> t
  | Error msg -> invalid_arg (Printf.sprintf "Program.validate (%s): %s" t.name msg)

let listing t =
  let contour_of = contour_of_instr t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "; program %s (entry %d)\n" t.name t.entry);
  Array.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "; contour %d %s depth=%d args=%d locals=%d maxoff=%d\n"
           c.id c.name c.depth c.n_args c.n_locals c.max_offset))
    t.contours;
  Array.iteri
    (fun i instr ->
      Buffer.add_string buf
        (Printf.sprintf "%s%4d  [c%d] %s\n"
           (if i = t.entry then "*" else " ")
           i contour_of.(i) (Isa.to_string instr)))
    t.code;
  Buffer.contents buf
