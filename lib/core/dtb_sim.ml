(* Trace-driven DTB simulation.

   Ablation sweeps (associativity, capacity, allocation policy) need many
   DTB configurations over the same instruction stream; re-running the full
   machine for each would be wasteful, and the DTB's hit/miss behaviour
   depends only on the sequence of DIR instruction addresses presented to
   INTERP — which is exactly the reference interpreter's instruction trace.
   This module replays that trace against a [Dtb.t].

   Translation lengths (for overflow behaviour) are the short-word counts of
   the PSDER templates, identical to what the dynamic translator emits. *)

module Isa = Uhm_dir.Isa
module Program = Uhm_dir.Program
module Codec = Uhm_encoding.Codec

(* Short words emitted for one DIR instruction by the dynamic translator
   (see Translate_gen): pushes + call + INTERP chain. *)
let translation_words { Isa.op; _ } =
  match op with
  | Isa.Lit -> 2
  | Isa.Jump -> 1
  | Isa.Halt -> 1
  | Isa.Ret -> 2
  | Isa.Jz | Isa.Cjeq | Isa.Cjne | Isa.Cjlt | Isa.Cjle | Isa.Cjgt | Isa.Cjge ->
      4
  | Isa.Call -> 4
  | Isa.Enter -> 5
  | _ -> (
      match Isa.shape op with
      | Isa.Shape_none -> 2
      | Isa.Shape_imm -> 3
      | Isa.Shape_var -> 4
      | Isa.Shape_target | Isa.Shape_call | Isa.Shape_enter -> assert false)

type result = {
  references : int;
  hit_ratio : float;
  misses : int;
  evictions : int;
  overflow_allocations : int;
  words_emitted : int;   (* short words written by the translator *)
}

(* Replay the program's dynamic instruction stream against a fresh DTB with
   the given configuration.  [addr_of] maps instruction indices to the DIR
   addresses used as tags (use [Codec.encoded] offsets for a specific
   encoding, or indices themselves for an encoding-independent study). *)
let replay ?(addr_of = fun i -> i) ~config (p : Program.t) =
  let dtb = Dtb.create config ~buffer_base:0 in
  let code = p.Program.code in
  let refs = ref 0 in
  let emitted = ref 0 in
  let on_step i _instr =
    incr refs;
    let tag = addr_of i in
    if Dtb.lookup_addr dtb ~tag < 0 then begin
      Dtb.begin_translation dtb ~tag;
      let words = translation_words code.(i) in
      emitted := !emitted + words;
      for _ = 1 to words do
        ignore (Dtb.emit dtb 0)
      done;
      ignore (Dtb.end_translation dtb)
    end
  in
  let r = Uhm_dir.Interp.run ~on_step p in
  (match r.Uhm_dir.Interp.status with
  | Uhm_dir.Interp.Halted -> ()
  | Uhm_dir.Interp.Trapped m -> failwith ("Dtb_sim.replay: program trapped: " ^ m)
  | Uhm_dir.Interp.Out_of_fuel -> failwith "Dtb_sim.replay: out of fuel");
  {
    references = !refs;
    hit_ratio = Dtb.hit_ratio dtb;
    misses = Dtb.misses dtb;
    evictions = Dtb.evictions dtb;
    overflow_allocations = Dtb.overflow_allocations dtb;
    words_emitted = !emitted;
  }

let replay_encoded ~config (encoded : Codec.encoded) =
  let offsets = encoded.Codec.offsets in
  replay ~addr_of:(fun i -> offsets.(i)) ~config encoded.Codec.program
