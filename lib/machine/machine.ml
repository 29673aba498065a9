module H = Host_isa

type pc =
  | Long of int
  | Short of int

type status =
  | Running
  | Halted
  | Trapped of string
  | Out_of_fuel

type region = {
  rname : string;
  base : int;
  size : int;
  cost : int;
}

type dir_fetch_mode =
  | Dir_uncached
  | Dir_cached of Cache.t

(* The execution backend.  [`Decode] is the reference implementation:
   every instruction is re-decoded on every execution.  [`Threaded]
   compiles long-format code and installed short-format words into
   pre-bound OCaml closures (operands, categories, memory costs and cycle
   accounting resolved at compile time) and dispatches them directly —
   the paper's DIR->PSDER argument applied to the simulator's own host
   loop.  The two backends are observably identical: same cycle counts,
   same statistics, same traps, same final state, on every program. *)
type backend = [ `Decode | `Threaded ]

type stats = {
  mutable cycles : int;
  mutable host_instrs : int;
  mutable short_instrs : int;
  cat_cycles : int array;
  mutable dir_units_fetched : int;
  mutable dir_fetch_cycles : int;
  mutable short_fetch_cycles : int;
  mutable code_fetch_cycles : int;
  mutable stack_cycles : int;
  mutable interp_count : int;
}

let category_index = function
  | Asm.Startup -> 0
  | Asm.Decode -> 1
  | Asm.Semantic -> 2
  | Asm.Translate -> 3
  | Asm.Der -> 4

(* -- Paged memory ------------------------------------------------------------
   Simulated memory is sparse: the default layout spans ~1.6M words but a run
   touches only a few pages of it.  Pages start as a shared all-zero page and
   are copied on first write, so creating a machine costs a small page table
   instead of zeroing megabytes.  The same copy-on-write makes checkpoints
   free: a machine writes in place only the pages it owns (one byte per
   page), a checkpoint shares the machine's pages and disowns them, and the
   next write to a disowned page copies it first.  A page is 512 words, the
   copy granule: between two checkpoints a machine writes its stack, data
   and DTB-buffer pages again, and a small granule re-copies only the words
   near each write.  A checkpoint is charged per [charge_page_bits] page
   instead, so the granule is a host choice that no simulated number
   sees. *)

let page_bits = 9
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

(* The page a checkpoint is charged for: 4,096 words, eight copy pages. *)
let charge_page_bits = 12

(* Shared by every machine and never owned, so [mem_set] never writes it. *)
let zero_page : int array = Array.make page_words 0

(* -- Per-domain memory pool ---------------------------------------------------
   Experiment grids create and drop thousands of machines; recycling the
   COW pages and the page tables keeps that churn out of the GC.  The pool
   is domain-local (no locks): a sweep worker only ever recycles machines
   it created.  Recycled pages are re-zeroed on reuse, so a pooled machine
   is indistinguishable from a freshly allocated one. *)

type page_pool = {
  mutable free_pages : int array list;
  mutable free_page_count : int;
  mutable free_tables : int array array list;
}

(* The pool holds at most 4M words (32 MB) of pages, whatever the page
   size. *)
let max_pooled_words = 1 lsl 22
let max_pooled_pages = max_pooled_words / page_words
let max_pooled_tables = 8

let pool_key : page_pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { free_pages = []; free_page_count = 0; free_tables = [] })

(* A page from the pool (stale contents) or a new one. *)
let pooled_page () =
  let pool = Domain.DLS.get pool_key in
  match pool.free_pages with
  | page :: rest ->
      pool.free_pages <- rest;
      pool.free_page_count <- pool.free_page_count - 1;
      page
  | [] -> Array.make page_words 0

let alloc_page () =
  let page = pooled_page () in
  Array.fill page 0 page_words 0;
  page

(* A typed loop, not [Array.blit]: the blit cannot know the words are
   immediates and pays the write barrier on every one of them. *)
let copy_page (src : int array) =
  let page : int array = pooled_page () in
  for i = 0 to page_words - 1 do
    Array.unsafe_set page i (Array.unsafe_get src i)
  done;
  page

let alloc_page_table pages =
  let pool = Domain.DLS.get pool_key in
  let rec take acc = function
    | [] -> None
    | t :: rest when Array.length t = pages ->
        pool.free_tables <- List.rev_append acc rest;
        Some t
    | t :: rest -> take (t :: acc) rest
  in
  (* a pooled table comes from [recycle], whose [release_pages] left every
     entry at the zero page *)
  match take [] pool.free_tables with
  | Some table -> table
  | None -> Array.make pages zero_page

(* -- Region cost table --------------------------------------------------------
   Memory access time by region, resolved in O(1): a table holds one cost per
   [cost_page_words]-word page when the page lies entirely inside one region,
   and [cost_mixed] when a region boundary splits the page (then the original
   first-match scan decides, preserving exact semantics for any layout). *)

let cost_page_bits = 8
let cost_page_words = 1 lsl cost_page_bits
let cost_mixed = -1

type t = {
  code : H.instr array;
  code_cat : int array;
  mem : int array array;
  owned : Bytes.t;
      (* one byte per page: [owned_byte] when the page is this machine's
         private copy and may be written in place; anything else (the zero
         page, a page shared with a checkpoint) is copied on write *)
  mutable used : int array;
  mutable n_used : int;
      (* [used.(0 .. n_used-1)]: the indices of the pages that are not the
         zero page, ascending, so checkpoints, restores and recycling cost
         what the machine has written rather than a whole page table *)
  mem_words : int;
  regions : region array;
  region_cost : int array;
  regs : int array;
  timing : Timing.t;
  fuel : int;
  out : Buffer.t;
  stats : stats;
  mutable pc_short : bool;
  mutable pc_addr : int;
  mutable status : status;
  mutable hooks : hooks option;
  mutable dir_bits : string;
  mutable dir_reader : Uhm_bitstream.Reader.t option;
  mutable dir_mode : dir_fetch_mode;
  mutable dir_buffered_unit : int;  (* IFU holds one 16-bit unit; -1 = empty *)
  mutable code_fetch_hook : (int -> int) option;
  (* threaded backend state (inert under [`Decode]) *)
  threaded : bool;
  mutable lc : (t -> unit) array;
      (* long-format code compiled to closures, one slot per code address,
         filled lazily as addresses get warm ([| |] until the first
         threaded span; dropped when the code-fetch hook changes).  A cold
         slot holds [cold_long]; a once-executed slot holds a per-address
         warm closure that compiles on its second execution, so run-once
         code (straight-line DER expansions, cold library routines) never
         pays the compiler. *)
  mutable sc_base : int;  (* short-compile window base; max_int = disabled *)
  mutable sc_size : int;
  mutable sc_table : (t -> unit) array array;
      (* two-level, copy-on-write: one slot per word of the window, in
         chunks of [sc_chunk_words].  Untouched chunks all share the global
         [cold_chunk] (every slot = the self-compiling [cold_short]), so
         opening a 512K-word window costs a handful of chunk pointers, not
         a window-sized closure array per machine.  Every slot is always
         callable, so the span loop needs no per-iteration compiled-or-not
         test; invalidation writes [cold_short] back into the slot's
         private chunk in place ([restore] alone re-points every chunk at
         [cold_chunk]). *)
}

and hooks = {
  h_interp : t -> dir_addr:int -> dctx:int -> unit;
  h_emit_short : t -> int -> unit;
  h_end_trans : t -> unit;
  h_decode_assist : t -> unit;
}

exception Machine_trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Machine_trap s)) fmt

(* Short-compile chunking: 256-slot chunks keep fresh (copied-on-write)
   chunks small enough for the minor heap, so warming a window allocates
   proportionally to the words actually executed. *)
let sc_chunk_bits = 8
let sc_chunk_words = 1 lsl sc_chunk_bits
let sc_chunk_mask = sc_chunk_words - 1

let owned_byte = '\001'

(* Forward cells for the cold-path machinery: tables are created (and
   invalidated) by functions defined before the execution engine, but cold
   slots must hold the self-compiling closures defined after it.  All
   cells are installed exactly once, right after the cold/warm pair. *)
let cold_short_cell : (t -> unit) ref = ref (fun _ -> ())
let cold_long_cell : (t -> unit) ref = ref (fun _ -> ())
let cold_chunk_cell : (t -> unit) array ref = ref [||]

(* The return stack distinguishes IU1 and IU2 resumption addresses with a
   high tag bit. *)
let short_tag = 1 lsl 40
let short_mask = short_tag - 1

(* First-match linear scan over the region list; the reference semantics the
   cost table must agree with. *)
let scan_cost regions addr =
  let rec go i =
    if i >= Array.length regions then raise Not_found
    else
      let r = Array.unsafe_get regions i in
      if addr >= r.base && addr < r.base + r.size then r.cost else go (i + 1)
  in
  go 0

let build_cost_table regions mem_words =
  let pages = (mem_words + cost_page_words - 1) lsr cost_page_bits in
  let tbl = Array.make pages cost_mixed in
  (* A page is uniform unless some region boundary falls strictly inside
     it; boundaries on page edges leave the covering-region set constant
     across the page. *)
  let mixed = Array.make pages false in
  Array.iter
    (fun r ->
      List.iter
        (fun b ->
          if b land (cost_page_words - 1) <> 0 then begin
            let pg = b lsr cost_page_bits in
            if pg < pages then mixed.(pg) <- true
          end)
        [ r.base; r.base + r.size ])
    regions;
  for pg = 0 to pages - 1 do
    if not mixed.(pg) then
      tbl.(pg) <-
        (match scan_cost regions (pg lsl cost_page_bits) with
        | cost -> cost
        | exception Not_found -> cost_mixed)
  done;
  tbl

(* Per-domain memos of the tables [create] derives from its inputs: the
   category indices are a pure function of the program, the region array
   and cost table of the region list.  The layer above (Uhm's build
   memos) hands repeated runs the same program and region-list objects, so keying on physical identity turns a per-run
   recomputation — an [Array.map] over the whole host program and a
   region scan per cost page — into a list probe.  All shared tables are
   read-only for the machine's lifetime. *)
let derived_memo_max = 64

let code_cat_memo :
    (Asm.category array * int array) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let code_cat_for (program : Asm.program) =
  let cats = program.Asm.categories in
  let cache = Domain.DLS.get code_cat_memo in
  match List.find_opt (fun (c, _) -> c == cats) !cache with
  | Some (_, v) -> v
  | None ->
      let v = Array.map category_index cats in
      let entries = !cache in
      let entries =
        if List.length entries >= derived_memo_max then
          List.filteri (fun i _ -> i < derived_memo_max - 1) entries
        else entries
      in
      cache := (cats, v) :: entries;
      v

let region_tables_memo :
    ((region list * int) * (region array * int array)) list ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let region_tables_for regions_list mem_words =
  let cache = Domain.DLS.get region_tables_memo in
  match
    List.find_opt
      (fun ((rl, mw), _) -> rl == regions_list && mw = mem_words)
      !cache
  with
  | Some (_, v) -> v
  | None ->
      let regions = Array.of_list regions_list in
      Array.iter
        (fun r ->
          if r.base < 0 || r.size < 0 || r.base + r.size > mem_words then
            invalid_arg
              (Printf.sprintf "Machine.create: region %s out of range" r.rname))
        regions;
      let v = (regions, build_cost_table regions mem_words) in
      let entries = !cache in
      let entries =
        if List.length entries >= derived_memo_max then
          List.filteri (fun i _ -> i < derived_memo_max - 1) entries
        else entries
      in
      cache := ((regions_list, mem_words), v) :: entries;
      v

let create ?(timing = Timing.paper) ?(fuel = 1_000_000_000)
    ?(backend = `Decode) ~program ~mem_words ~regions () =
  let regions, region_cost = region_tables_for regions mem_words in
  let pages = (mem_words + page_words - 1) lsr page_bits in
  {
    code = program.Asm.code;
    code_cat = code_cat_for program;
    mem = alloc_page_table pages;
    owned = Bytes.make pages '\000';
    used = Array.make 16 0;
    n_used = 0;
    mem_words;
    regions;
    region_cost;
    regs = Array.make H.Regs.n 0;
    timing;
    fuel;
    out = Buffer.create 256;
    stats =
      {
        cycles = 0;
        host_instrs = 0;
        short_instrs = 0;
        cat_cycles = Array.make 5 0;
        dir_units_fetched = 0;
        dir_fetch_cycles = 0;
        short_fetch_cycles = 0;
        code_fetch_cycles = 0;
        stack_cycles = 0;
        interp_count = 0;
      };
    pc_short = false;
    pc_addr = 0;
    status = Running;
    hooks = None;
    dir_bits = "";
    dir_reader = None;
    dir_mode = Dir_uncached;
    dir_buffered_unit = -1;
    code_fetch_hook = None;
    threaded = (backend = `Threaded);
    lc = [||];
    sc_base = max_int;
    sc_size = 0;
    sc_table = [||];
  }

let backend t : backend = if t.threaded then `Threaded else `Decode

let set_hooks t hooks = t.hooks <- Some hooks

let set_dir_stream t ~bits ~mode =
  t.dir_bits <- bits;
  t.dir_reader <- Some (Uhm_bitstream.Reader.of_string bits);
  t.dir_mode <- mode;
  t.dir_buffered_unit <- -1

let set_code_fetch_hook t f =
  t.code_fetch_hook <- Some f;
  (* long-code closures bake the hook in; force a recompile *)
  t.lc <- [||]

(* Open a short-compile window over [base, base+size): the threaded
   backend may cache closures for short words in this range (compiled on
   demand as the pc reaches them).  A no-op on decode machines.  The
   window must cover only addresses whose region assignment is fixed for
   the machine's lifetime — true of every region in this simulator. *)
let enable_short_compile t ~base ~size =
  if t.threaded && size > 0 then begin
    if base < 0 || base + size > t.mem_words then
      invalid_arg "Machine.enable_short_compile: window out of range";
    t.sc_base <- base;
    t.sc_size <- size;
    t.sc_table <-
      Array.make
        ((size + sc_chunk_words - 1) lsr sc_chunk_bits)
        !cold_chunk_cell
  end

let timing t = t.timing
let reg t r = t.regs.(r)
let set_reg t r v = t.regs.(r) <- v

(* Bounds already checked by the caller. *)
let mem_get t addr =
  Array.unsafe_get
    (Array.unsafe_get t.mem (addr lsr page_bits))
    (addr land page_mask)

(* Add page index [pi] to [used], keeping it ascending. *)
let note_used t pi =
  let n = t.n_used in
  if n = Array.length t.used then begin
    let grown = Array.make (2 * n) 0 in
    Array.blit t.used 0 grown 0 n;
    t.used <- grown
  end;
  let used = t.used in
  let j = ref n in
  while !j > 0 && used.(!j - 1) > pi do
    used.(!j) <- used.(!j - 1);
    decr j
  done;
  used.(!j) <- pi;
  t.n_used <- n + 1

(* Make page [pi] this machine's private copy: a fresh zeroed page for the
   zero page, a copy for a page shared with a checkpoint. *)
let own_page t pi =
  let page = Array.unsafe_get t.mem pi in
  let fresh =
    if page == zero_page then begin
      note_used t pi;
      alloc_page ()
    end
    else copy_page page
  in
  Array.unsafe_set t.mem pi fresh;
  Bytes.unsafe_set t.owned pi owned_byte;
  fresh

let mem_set t addr v =
  let pi = addr lsr page_bits in
  let page =
    if Bytes.unsafe_get t.owned pi = owned_byte then Array.unsafe_get t.mem pi
    else own_page t pi
  in
  Array.unsafe_set page (addr land page_mask) v;
  (* every write to simulated memory funnels through here, so resetting the
     word's compiled closure at this single point keeps the threaded
     backend's invariant: a compiled slot always agrees with a fresh decode
     of the word now in memory.  A closure depends on nothing but its word
     and address, so nothing else (a DTB entry's death, say) needs to
     touch the table. *)
  if addr >= t.sc_base && addr - t.sc_base < t.sc_size then begin
    let i = addr - t.sc_base in
    let chunk = Array.unsafe_get t.sc_table (i lsr sc_chunk_bits) in
    if chunk != !cold_chunk_cell then
      Array.unsafe_set chunk (i land sc_chunk_mask) !cold_short_cell
  end

(* Give the machine's owned pages back to the pool (a page shared with a
   checkpoint stays with the checkpoint) and point every entry at the zero
   page, unowned. *)
let release_pages t =
  let pool = Domain.DLS.get pool_key in
  let mem = t.mem in
  for k = 0 to t.n_used - 1 do
    let i = Array.unsafe_get t.used k in
    if Bytes.unsafe_get t.owned i = owned_byte then begin
      if pool.free_page_count < max_pooled_pages then begin
        pool.free_pages <- Array.unsafe_get mem i :: pool.free_pages;
        pool.free_page_count <- pool.free_page_count + 1
      end;
      Bytes.unsafe_set t.owned i '\000'
    end;
    Array.unsafe_set mem i zero_page
  done;
  t.n_used <- 0

(* Return the machine's pages and page table to the domain-local pool.
   The machine must not be used afterwards: its memory now aliases pool
   storage that the next [create] on this domain will hand out again. *)
let recycle t =
  release_pages t;
  let pool = Domain.DLS.get pool_key in
  if List.length pool.free_tables < max_pooled_tables then
    pool.free_tables <- t.mem :: pool.free_tables

let peek t addr =
  if addr < 0 || addr >= t.mem_words then
    invalid_arg (Printf.sprintf "Machine.peek: address %d out of range" addr);
  mem_get t addr

let poke t addr v =
  if addr < 0 || addr >= t.mem_words then
    invalid_arg (Printf.sprintf "Machine.poke: address %d out of range" addr);
  mem_set t addr v

let set_short_pc t a =
  t.pc_short <- true;
  t.pc_addr <- a

let set_pc t = function
  | Long a ->
      t.pc_short <- false;
      t.pc_addr <- a
  | Short a -> set_short_pc t a

let pc t = if t.pc_short then Short t.pc_addr else Long t.pc_addr
let status t = t.status
let stats t = t.stats
let output t = Buffer.contents t.out
let add_cycles t n = t.stats.cycles <- t.stats.cycles + n

let mem_cost t addr =
  if addr < 0 || addr >= t.mem_words then raise Not_found
  else
    let c = Array.unsafe_get t.region_cost (addr lsr cost_page_bits) in
    if c >= 0 then c else scan_cost t.regions addr

(* Hot path: bounds already checked, table hit avoids the scan. *)
let charge_mem_checked t addr =
  let c = Array.unsafe_get t.region_cost (addr lsr cost_page_bits) in
  if c >= 0 then t.stats.cycles <- t.stats.cycles + c
  else
    match scan_cost t.regions addr with
    | cost -> t.stats.cycles <- t.stats.cycles + cost
    | exception Not_found -> trap "unmapped memory address %d" addr

let charge_mem t addr =
  if addr < 0 || addr >= t.mem_words then
    trap "unmapped memory address %d" addr;
  charge_mem_checked t addr

(* -- Flattened access paths ----------------------------------------------------
   Every memory, operand-stack and return-stack access made by executing
   code, on both backends.  Each body spells out its whole path — bounds
   check, region charge, ownership test, store — instead of calling a
   chain of small helpers: without flambda every hop in such a chain is
   an out-of-line call, and these accesses sit on the hottest path of the
   simulator.  The rare branches — mixed cost pages, unmapped pages,
   writes to unowned pages or into the short-compile window — fall back
   to [charge_mem_checked] and [mem_set], so the semantics (including the
   window-invalidation funnel) stay in one place.  Operand/return stack
   accesses also charge [stack_cycles], so the short-format overhead is
   visible in reports. *)

let charge_fast t addr =
  let c = Array.unsafe_get t.region_cost (addr lsr cost_page_bits) in
  if c >= 0 then t.stats.cycles <- t.stats.cycles + c
  else charge_mem_checked t addr

let load_fast t addr =
  if addr < 0 || addr >= t.mem_words then trap "memory read at %d" addr;
  charge_fast t addr;
  mem_get t addr

let store_fast t addr v =
  if addr < 0 || addr >= t.mem_words then trap "memory write at %d" addr;
  charge_fast t addr;
  let pi = addr lsr page_bits in
  if Bytes.unsafe_get t.owned pi = owned_byte
     && (addr < t.sc_base || addr - t.sc_base >= t.sc_size)
  then Array.unsafe_set (Array.unsafe_get t.mem pi) (addr land page_mask) v
  else mem_set t addr v

let push_op_fast t v =
  let sp = Array.unsafe_get t.regs H.Regs.sp in
  if sp < 0 || sp >= t.mem_words then trap "memory write at %d" sp;
  charge_fast t sp;
  (let pi = sp lsr page_bits in
   if Bytes.unsafe_get t.owned pi = owned_byte
      && (sp < t.sc_base || sp - t.sc_base >= t.sc_size)
   then Array.unsafe_set (Array.unsafe_get t.mem pi) (sp land page_mask) v
   else mem_set t sp v);
  t.stats.stack_cycles <- t.stats.stack_cycles + t.timing.Timing.t1;
  Array.unsafe_set t.regs H.Regs.sp (sp + 1)

let pop_op_fast t =
  let sp = Array.unsafe_get t.regs H.Regs.sp - 1 in
  if sp < 0 then trap "operand stack underflow";
  Array.unsafe_set t.regs H.Regs.sp sp;
  if sp >= t.mem_words then trap "memory read at %d" sp;
  charge_fast t sp;
  let v = mem_get t sp in
  t.stats.stack_cycles <- t.stats.stack_cycles + t.timing.Timing.t1;
  v

let push_ret_fast t v =
  let rsp = Array.unsafe_get t.regs H.Regs.rsp in
  if rsp < 0 || rsp >= t.mem_words then trap "memory write at %d" rsp;
  charge_fast t rsp;
  (let pi = rsp lsr page_bits in
   if Bytes.unsafe_get t.owned pi = owned_byte
      && (rsp < t.sc_base || rsp - t.sc_base >= t.sc_size)
   then Array.unsafe_set (Array.unsafe_get t.mem pi) (rsp land page_mask) v
   else mem_set t rsp v);
  t.stats.stack_cycles <- t.stats.stack_cycles + t.timing.Timing.t1;
  Array.unsafe_set t.regs H.Regs.rsp (rsp + 1)

let pop_ret_fast t =
  let rsp = Array.unsafe_get t.regs H.Regs.rsp - 1 in
  if rsp < 0 then trap "return stack underflow";
  Array.unsafe_set t.regs H.Regs.rsp rsp;
  if rsp >= t.mem_words then trap "memory read at %d" rsp;
  charge_fast t rsp;
  let v = mem_get t rsp in
  t.stats.stack_cycles <- t.stats.stack_cycles + t.timing.Timing.t1;
  v

(* -- DIR stream fetch (the IFU) -------------------------------------------- *)

let charge_dir_unit t unit_index =
  if unit_index <> t.dir_buffered_unit then begin
    t.dir_buffered_unit <- unit_index;
    t.stats.dir_units_fetched <- t.stats.dir_units_fetched + 1;
    let cost =
      match t.dir_mode with
      | Dir_uncached -> t.timing.Timing.t2
      | Dir_cached cache -> (
          match Cache.access cache unit_index with
          | `Hit -> t.timing.Timing.t_dtb
          | `Miss -> t.timing.Timing.t2)
    in
    t.stats.dir_fetch_cycles <- t.stats.dir_fetch_cycles + cost;
    t.stats.cycles <- t.stats.cycles + cost
  end

(* Charge the IFU for every 16-bit unit in [first_bit, last_bit]; used by
   the decode-assist hook, which reads the stream outside GetBits. *)
let charge_dir_span t ~first_bit ~last_bit =
  for u = first_bit / 16 to last_bit / 16 do
    charge_dir_unit t u
  done

let get_bits t width =
  let reader =
    match t.dir_reader with
    | Some r -> r
    | None -> trap "GetBits with no DIR stream loaded"
  in
  let addr = t.regs.(H.Regs.dpc) in
  if width < 0 then trap "GetBits with negative width";
  let last = addr + width - 1 in
  if addr < 0 || last >= Uhm_bitstream.Reader.length_bits reader then
    trap "DIR fetch out of range at bit %d" addr;
  (* charge each 16-bit unit the field touches *)
  if width = 0 then 0
  else begin
    for u = addr / 16 to last / 16 do
      charge_dir_unit t u
    done;
    (* sequential fetches leave the cursor already at dpc *)
    if Uhm_bitstream.Reader.pos reader <> addr then
      Uhm_bitstream.Reader.seek reader addr;
    let v = Uhm_bitstream.Reader.get reader width in
    t.regs.(H.Regs.dpc) <- addr + width;
    v
  end

(* -- Execution -------------------------------------------------------------- *)

let hooks_exn t =
  match t.hooks with
  | Some h -> h
  | None -> trap "IU2 feature used with no hooks installed"

(* The ALU.  A zero divisor traps in place, so no dispatch needs an
   exception handler of its own. *)
let alu op x y =
  match op with
  | H.Add -> x + y
  | H.Sub -> x - y
  | H.Mul -> x * y
  | H.Div -> if y = 0 then trap "division by zero" else x / y
  | H.Mod -> if y = 0 then trap "division by zero" else x mod y
  | H.And -> x land y
  | H.Or -> x lor y
  | H.Xor -> x lxor y
  | H.Shl -> x lsl y
  | H.Shr -> x asr y
  | H.Slt -> if x < y then 1 else 0
  | H.Sle -> if x <= y then 1 else 0
  | H.Seq -> if x = y then 1 else 0
  | H.Sne -> if x <> y then 1 else 0
  | H.Sgt -> if x > y then 1 else 0
  | H.Sge -> if x >= y then 1 else 0

let exec_long t addr =
  if addr < 0 || addr >= Array.length t.code then trap "host pc out of range: %d" addr;
  let stats = t.stats in
  (match t.code_fetch_hook with
  | Some f ->
      let extra = f addr in
      stats.code_fetch_cycles <- stats.code_fetch_cycles + extra;
      stats.cycles <- stats.cycles + extra
  | None -> ());
  let cat = Array.unsafe_get t.code_cat addr in
  (* Stats are batched: the instruction's own cycle, the instruction
     count and the category attribution are flushed in one group of
     writes after the dispatch, instead of touching the record per field
     up front and re-reading it at the end.  Totals for any run that
     reaches the flush are identical to the unbatched accounting. *)
  let before = stats.cycles in
  let fetch_before = stats.dir_fetch_cycles in
  let regs = t.regs in
  (* fall-through default; taken branches, Ret and the hooks overwrite it
     ([pc_short] is false on entry: exec_long only runs from a Long pc) *)
  t.pc_addr <- addr + 1;
  (match Array.unsafe_get t.code addr with
  | H.Li (rd, v) -> regs.(rd) <- v
  | H.Mv (rd, rs) -> regs.(rd) <- regs.(rs)
  | H.Alu (op, rd, rs1, rs2) -> regs.(rd) <- alu op regs.(rs1) regs.(rs2)
  | H.Alui (op, rd, rs, v) -> regs.(rd) <- alu op regs.(rs) v
  | H.Alu2i (op1, op2, rd, rs1, rs2, v) ->
      regs.(rd) <- alu op2 (alu op1 regs.(rs1) regs.(rs2)) v
  | H.Load (rd, rs, off) -> regs.(rd) <- load_fast t (regs.(rs) + off)
  | H.Store (rs, rbase, off) -> store_fast t (regs.(rbase) + off) regs.(rs)
  | H.Jmp a -> t.pc_addr <- a
  | H.Jz (r, a) -> if regs.(r) = 0 then t.pc_addr <- a
  | H.Jnz (r, a) -> if regs.(r) <> 0 then t.pc_addr <- a
  | H.Jneg (r, a) -> if regs.(r) < 0 then t.pc_addr <- a
  | H.JmpR r -> t.pc_addr <- regs.(r)
  | H.CallL a ->
      push_ret_fast t (addr + 1);
      t.pc_addr <- a
  | H.CallR r ->
      push_ret_fast t (addr + 1);
      t.pc_addr <- regs.(r)
  | H.Ret ->
      let v = pop_ret_fast t in
      if v land short_tag <> 0 then begin
        t.pc_short <- true;
        t.pc_addr <- v land short_mask
      end
      else t.pc_addr <- v
  | H.PushOp r -> push_op_fast t regs.(r)
  | H.PopOp r -> regs.(r) <- pop_op_fast t
  | H.GetBits (rd, width) -> regs.(rd) <- get_bits t width
  | H.GetBitsR (rd, rw) -> regs.(rd) <- get_bits t regs.(rw)
  | H.DecodeAssist -> (hooks_exn t).h_decode_assist t
  | H.EmitShort r -> (hooks_exn t).h_emit_short t regs.(r)
  | H.EndTrans -> (hooks_exn t).h_end_trans t (* pc set by the hook *)
  | H.Out r ->
      Buffer.add_string t.out (string_of_int regs.(r));
      Buffer.add_char t.out '\n'
  | H.OutC r ->
      let v = regs.(r) in
      if v < 0 || v > 255 then trap "OutC out of range: %d" v;
      Buffer.add_char t.out (Char.chr v)
  | H.Halt ->
      t.status <- Halted;
      t.pc_addr <- addr
  | H.Break msg -> trap "%s" msg);
  (* flush: +1 for the instruction itself, and its category gets every
     cycle charged during dispatch except DIR-stream fetch time, which is
     accounted separately (the paper's s2*tau2 term) *)
  let cycles = stats.cycles + 1 in
  stats.cycles <- cycles;
  stats.host_instrs <- stats.host_instrs + 1;
  let cats = stats.cat_cycles in
  Array.unsafe_set cats cat
    (Array.unsafe_get cats cat + (cycles - before)
    - (stats.dir_fetch_cycles - fetch_before))

let exec_short t addr =
  let stats = t.stats in
  let before = stats.cycles in
  let word = load_fast t addr in
  (* batched flush: fetch charge attribution, the instruction cycle and
     the count in one group of writes (totals identical to incrementing
     each field as it accrues) *)
  let fetch = stats.cycles - before in
  stats.cycles <- before + fetch + 1;
  stats.short_instrs <- stats.short_instrs + 1;
  stats.short_fetch_cycles <- stats.short_fetch_cycles + fetch;
  (* field accessors on the raw word: no per-word tuple allocation in the
     IU2 dispatch loop *)
  let operand = Short_format.unpack_operand word in
  t.pc_addr <- addr + 1;
  match Short_format.op_of_int (Short_format.unpack_op word) with
  | Short_format.Push_imm -> push_op_fast t operand
  | Short_format.Push_dir -> push_op_fast t (load_fast t operand)
  | Short_format.Push_ind -> push_op_fast t (load_fast t (load_fast t operand))
  | Short_format.Pop_dir ->
      let v = pop_op_fast t in
      store_fast t operand v
  | Short_format.Call_long ->
      push_ret_fast t ((addr + 1) lor short_tag);
      t.pc_short <- false;
      t.pc_addr <- operand
  | Short_format.Interp_imm ->
      stats.interp_count <- stats.interp_count + 1;
      (hooks_exn t).h_interp t ~dir_addr:operand
        ~dctx:(Short_format.unpack_ctx word)
  | Short_format.Interp_stk ->
      stats.interp_count <- stats.interp_count + 1;
      let dir_addr = pop_op_fast t in
      let dctx = pop_op_fast t in
      (hooks_exn t).h_interp t ~dir_addr ~dctx
  | Short_format.Goto -> t.pc_addr <- operand
  | Short_format.Goto_stk ->
      let a = pop_op_fast t in
      t.pc_addr <- a

let step t =
  match t.status with
  | Running -> (
      if t.stats.cycles >= t.fuel then t.status <- Out_of_fuel
      else
        try
          if t.pc_short then exec_short t t.pc_addr else exec_long t t.pc_addr
        with Machine_trap msg -> t.status <- Trapped msg)
  | Halted | Trapped _ | Out_of_fuel -> ()

(* Run [exec_long]/[exec_short] until the machine leaves [Running], [lim]
   cycles have been charged, or [quantum] INTERP transfers have completed
   since [qstart] — always stopping on an instruction boundary, with one
   trap handler per span instead of one per instruction.  Callers ensure
   [lim <= fuel], so the loop conditions establish everything [step]
   checks and the span executes exactly the [step]s it replaces. *)
let exec_decode_span t ~lim ~qstart ~quantum =
  let stats = t.stats in
  try
    while
      t.status == Running && stats.cycles < lim
      && stats.interp_count - qstart < quantum
    do
      if t.pc_short then exec_short t t.pc_addr else exec_long t t.pc_addr
    done
  with Machine_trap msg -> t.status <- Trapped msg

(* -- The threaded backend ----------------------------------------------------
   Each closure below is the exact image of one [exec_long]/[exec_short]
   dispatch for one fixed address: operands, category index, fall-through
   pc and (for short words) the fetch cost are resolved at compile time,
   and the statistics flush is specialised to what the instruction can
   actually touch.  Because every closure is decode-equivalent for its
   word, the driver may fall back to the reference [step] anywhere — out
   of range pcs, words outside the compile window, opcodes that don't
   decode — without perturbing a single cycle. *)

(* Pre-specialised ALU operators; Div and Mod keep [alu]'s trap on a
   zero divisor. *)
let alu_fn : H.alu_op -> int -> int -> int = function
  | H.Add -> ( + )
  | H.Sub -> ( - )
  | H.Mul -> ( * )
  | (H.Div | H.Mod) as op -> fun x y -> alu op x y
  | H.And -> ( land )
  | H.Or -> ( lor )
  | H.Xor -> ( lxor )
  | H.Shl -> ( lsl )
  | H.Shr -> ( asr )
  | H.Slt -> fun x y -> if x < y then 1 else 0
  | H.Sle -> fun x y -> if x <= y then 1 else 0
  | H.Seq -> fun x y -> if x = y then 1 else 0
  | H.Sne -> fun x y -> if x <> y then 1 else 0
  | H.Sgt -> fun x y -> if x > y then 1 else 0
  | H.Sge -> fun x y -> if x >= y then 1 else 0

(* [exec_long]'s flush, specialised, reading the counters through the
   machine argument so compiled closures capture no per-machine state.
   [bump1]: the dispatch charged nothing, so the category gets exactly
   the instruction cycle.  [bump_mem]: the dispatch may have charged
   memory cycles but cannot have touched the DIR stream.  [bump_full]:
   the general form. *)
let bump1 t cat =
  let stats = t.stats in
  stats.cycles <- stats.cycles + 1;
  stats.host_instrs <- stats.host_instrs + 1;
  let cats = stats.cat_cycles in
  Array.unsafe_set cats cat (Array.unsafe_get cats cat + 1)
  [@@inline]

let bump_mem t cat before =
  let stats = t.stats in
  let cycles = stats.cycles + 1 in
  stats.cycles <- cycles;
  stats.host_instrs <- stats.host_instrs + 1;
  let cats = stats.cat_cycles in
  Array.unsafe_set cats cat (Array.unsafe_get cats cat + (cycles - before))
  [@@inline]

let bump_full t cat before fetch_before =
  let stats = t.stats in
  let cycles = stats.cycles + 1 in
  stats.cycles <- cycles;
  stats.host_instrs <- stats.host_instrs + 1;
  let cats = stats.cat_cycles in
  Array.unsafe_set cats cat
    (Array.unsafe_get cats cat + (cycles - before)
    - (stats.dir_fetch_cycles - fetch_before))
  [@@inline]

(* Compile one long instruction into a closure.  Everything baked in at
   compile time is a function of the *code* alone — the decoded
   instruction, its cost category, the fall-through address; registers,
   counters, output, hooks and timing are all read through the machine
   argument.  A compiled closure is therefore valid for any machine
   executing the same program object, which is what lets [lc_for] share
   warmed closure arrays across runs.  The code-fetch-hook wrapper is
   the one exception: it bakes in the per-machine hook, and such
   machines keep a private array. *)
let compile_long_one t addr =
  let hook = t.code_fetch_hook in
  let cat = Array.unsafe_get t.code_cat addr in
  let next = addr + 1 in
  let body =
    match Array.unsafe_get t.code addr with
        | H.Li (rd, v) ->
            fun t ->
              t.pc_addr <- next;
              t.regs.(rd) <- v;
              bump1 t cat
        | H.Mv (rd, rs) ->
            fun t ->
              t.pc_addr <- next;
              let regs = t.regs in
              regs.(rd) <- regs.(rs);
              bump1 t cat
        | H.Alu (op, rd, rs1, rs2) ->
            let f = alu_fn op in
            fun t ->
              t.pc_addr <- next;
              let regs = t.regs in
              regs.(rd) <- f regs.(rs1) regs.(rs2);
              bump1 t cat
        | H.Alui (op, rd, rs, v) ->
            let f = alu_fn op in
            fun t ->
              t.pc_addr <- next;
              let regs = t.regs in
              regs.(rd) <- f regs.(rs) v;
              bump1 t cat
        | H.Alu2i (op1, op2, rd, rs1, rs2, v) ->
            let f1 = alu_fn op1 and f2 = alu_fn op2 in
            fun t ->
              t.pc_addr <- next;
              let regs = t.regs in
              regs.(rd) <- f2 (f1 regs.(rs1) regs.(rs2)) v;
              bump1 t cat
        | H.Load (rd, rs, off) ->
            fun t ->
              let before = t.stats.cycles in
              t.pc_addr <- next;
              t.regs.(rd) <- load_fast t (t.regs.(rs) + off);
              bump_mem t cat before
        | H.Store (rs, rbase, off) ->
            fun t ->
              let before = t.stats.cycles in
              t.pc_addr <- next;
              let regs = t.regs in
              store_fast t (regs.(rbase) + off) regs.(rs);
              bump_mem t cat before
        | H.Jmp a ->
            fun t ->
              t.pc_addr <- a;
              bump1 t cat
        | H.Jz (r, a) ->
            fun t ->
              t.pc_addr <- (if t.regs.(r) = 0 then a else next);
              bump1 t cat
        | H.Jnz (r, a) ->
            fun t ->
              t.pc_addr <- (if t.regs.(r) <> 0 then a else next);
              bump1 t cat
        | H.Jneg (r, a) ->
            fun t ->
              t.pc_addr <- (if t.regs.(r) < 0 then a else next);
              bump1 t cat
        | H.JmpR r ->
            fun t ->
              t.pc_addr <- t.regs.(r);
              bump1 t cat
        | H.CallL a ->
            fun t ->
              let before = t.stats.cycles in
              t.pc_addr <- next;
              push_ret_fast t next;
              t.pc_addr <- a;
              bump_mem t cat before
        | H.CallR r ->
            fun t ->
              let before = t.stats.cycles in
              t.pc_addr <- next;
              push_ret_fast t next;
              (* read after the push, as decode does: CallR rsp is legal *)
              t.pc_addr <- t.regs.(r);
              bump_mem t cat before
        | H.Ret ->
            fun t ->
              let before = t.stats.cycles in
              t.pc_addr <- next;
              let v = pop_ret_fast t in
              if v land short_tag <> 0 then begin
                t.pc_short <- true;
                t.pc_addr <- v land short_mask
              end
              else t.pc_addr <- v;
              bump_mem t cat before
        | H.PushOp r ->
            fun t ->
              let before = t.stats.cycles in
              t.pc_addr <- next;
              push_op_fast t t.regs.(r);
              bump_mem t cat before
        | H.PopOp r ->
            fun t ->
              let before = t.stats.cycles in
              t.pc_addr <- next;
              t.regs.(r) <- pop_op_fast t;
              bump_mem t cat before
        | H.GetBits (rd, width) ->
            fun t ->
              let before = t.stats.cycles in
              let fetch_before = t.stats.dir_fetch_cycles in
              t.pc_addr <- next;
              t.regs.(rd) <- get_bits t width;
              bump_full t cat before fetch_before
        | H.GetBitsR (rd, rw) ->
            fun t ->
              let before = t.stats.cycles in
              let fetch_before = t.stats.dir_fetch_cycles in
              t.pc_addr <- next;
              t.regs.(rd) <- get_bits t t.regs.(rw);
              bump_full t cat before fetch_before
        | H.DecodeAssist ->
            fun t ->
              let before = t.stats.cycles in
              let fetch_before = t.stats.dir_fetch_cycles in
              t.pc_addr <- next;
              (hooks_exn t).h_decode_assist t;
              bump_full t cat before fetch_before
        | H.EmitShort r ->
            fun t ->
              let before = t.stats.cycles in
              let fetch_before = t.stats.dir_fetch_cycles in
              t.pc_addr <- next;
              (hooks_exn t).h_emit_short t t.regs.(r);
              bump_full t cat before fetch_before
        | H.EndTrans ->
            fun t ->
              let before = t.stats.cycles in
              let fetch_before = t.stats.dir_fetch_cycles in
              t.pc_addr <- next;
              (hooks_exn t).h_end_trans t;
              bump_full t cat before fetch_before
        | H.Out r ->
            fun t ->
              t.pc_addr <- next;
              Buffer.add_string t.out (string_of_int t.regs.(r));
              Buffer.add_char t.out '\n';
              bump1 t cat
        | H.OutC r ->
            fun t ->
              t.pc_addr <- next;
              let v = t.regs.(r) in
              if v < 0 || v > 255 then trap "OutC out of range: %d" v;
              Buffer.add_char t.out (Char.chr v);
              bump1 t cat
        | H.Halt ->
            fun t ->
              t.status <- Halted;
              t.pc_addr <- addr;
              bump1 t cat
        | H.Break msg -> fun t ->
            t.pc_addr <- next;
            trap "%s" msg
      in
  match hook with
  | None -> body
  | Some f ->
      (* the hook charge precedes the flush baseline, exactly as in
         [exec_long]: hook cycles are never category-attributed *)
      fun t ->
        let extra = f addr in
        let stats = t.stats in
        stats.code_fetch_cycles <- stats.code_fetch_cycles + extra;
        stats.cycles <- stats.cycles + extra;
        body t

(* Compile the short word currently at [addr], or [None] when its opcode
   doesn't decode (the fallback [step] then reproduces the decode path's
   exception exactly).  The caller guarantees [addr] lies in the compile
   window, hence in a region, so the fetch cost is fixed and pre-bindable. *)
let compile_short t addr =
  let stats = t.stats in
  let word = mem_get t addr in
  let opn = Short_format.unpack_op word in
  match mem_cost t addr with
  | exception Not_found -> None  (* unmapped: let decode raise its trap *)
  | _ when opn > Short_format.op_to_int Short_format.Goto_stk -> None
  | fetch ->
    let next = addr + 1 in
    let operand = Short_format.unpack_operand word in
    (* [exec_short]'s prologue: fetch charge, instruction cycle, counts,
       fall-through pc *)
    let pre t =
      stats.cycles <- stats.cycles + fetch + 1;
      stats.short_instrs <- stats.short_instrs + 1;
      stats.short_fetch_cycles <- stats.short_fetch_cycles + fetch;
      t.pc_addr <- next
    in
    Some
      (match Short_format.op_of_int opn with
      | Short_format.Push_imm -> fun t -> pre t; push_op_fast t operand
      | Short_format.Push_dir ->
          fun t -> pre t; push_op_fast t (load_fast t operand)
      | Short_format.Push_ind ->
          fun t ->
            pre t;
            push_op_fast t (load_fast t (load_fast t operand))
      | Short_format.Pop_dir ->
          fun t ->
            pre t;
            let v = pop_op_fast t in
            store_fast t operand v
      | Short_format.Call_long ->
          let ret = next lor short_tag in
          fun t ->
            pre t;
            push_ret_fast t ret;
            t.pc_short <- false;
            t.pc_addr <- operand
      | Short_format.Interp_imm ->
          let dctx = Short_format.unpack_ctx word in
          fun t ->
            pre t;
            stats.interp_count <- stats.interp_count + 1;
            (hooks_exn t).h_interp t ~dir_addr:operand ~dctx
      | Short_format.Interp_stk ->
          fun t ->
            pre t;
            stats.interp_count <- stats.interp_count + 1;
            let dir_addr = pop_op_fast t in
            let dctx = pop_op_fast t in
            (hooks_exn t).h_interp t ~dir_addr ~dctx
      | Short_format.Goto -> fun t -> pre t; t.pc_addr <- operand
      | Short_format.Goto_stk ->
          fun t ->
            pre t;
            let a = pop_op_fast t in
            t.pc_addr <- a)

(* The cold/warm closure pair: every table slot is always callable.  A
   cold slot interprets its word in place — exactly the decode path — on
   its first execution since (re)install and leaves behind a per-address
   warm closure; the warm closure compiles on the second execution.
   Run-once code (straight-line DER expansions, single-shot translations,
   cold library routines) therefore executes at decode speed and never
   pays the compiler, with no hotness side table: the warmth is the slot
   content itself, and invalidation (which writes [cold_short] back)
   resets it for free.  Everything runs inside the span loop's dispatch,
   so cold code pays no per-instruction loop-exit round trip either.  The
   loop conditions ([Running], [cycles < lim <= fuel], pc in range)
   establish everything [step] would check, so calling
   [exec_short]/[exec_long] directly is exact; traps unwind to the span
   loop's handler just as compiled closures' do. *)

(* Install [f] at window offset [i], copying the shared cold chunk first
   if this is the chunk's first warm slot. *)
let sc_install t i f =
  let ci = i lsr sc_chunk_bits in
  let chunk = Array.unsafe_get t.sc_table ci in
  let chunk =
    if chunk == !cold_chunk_cell then begin
      let fresh = Array.copy chunk in
      Array.unsafe_set t.sc_table ci fresh;
      fresh
    end
    else chunk
  in
  Array.unsafe_set chunk (i land sc_chunk_mask) f

let warm_short a t =
  match compile_short t a with
  | Some f ->
      sc_install t (a - t.sc_base) f;
      f t
  | None -> exec_short t a

let cold_short t =
  let a = t.pc_addr in
  sc_install t (a - t.sc_base) (warm_short a);
  exec_short t a

let warm_long a t =
  let f = compile_long_one t a in
  Array.unsafe_set t.lc a f;
  f t

let cold_long t =
  let a = t.pc_addr in
  Array.unsafe_set t.lc a (warm_long a);
  exec_long t a

let () =
  cold_short_cell := cold_short;
  cold_long_cell := cold_long;
  cold_chunk_cell := Array.make sc_chunk_words cold_short

(* -- The compiled-long-code cache ---------------------------------------------
   Long-closure compilation bakes in only functions of the host code
   itself — the decoded instruction, its cost category, the fall-through
   address — and every closure reads its run state, timing and region
   costs through the machine argument.  A warmed closure array is
   therefore valid for any machine executing the same program object,
   whatever its timing or region layout, so arrays are cached per
   domain, keyed on the code array's physical identity (host programs
   are immutable once assembled, and the generator layer above hands
   repeated runs the same object).  Repeat runs start fully warm and
   never touch the compiler.  Machines with a code-fetch hook bake the
   per-machine hook into each closure and keep a private array instead.
   Bounded: a full cache drops its oldest entry. *)
let lc_cache_max = 64

let lc_cache_key : (H.instr array * (t -> unit) array) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let lc_for t =
  if t.code_fetch_hook <> None then
    Array.make (Array.length t.code) cold_long
  else begin
    let cache = Domain.DLS.get lc_cache_key in
    match List.find_opt (fun (c, _) -> c == t.code) !cache with
    | Some (_, lc) -> lc
    | None ->
        let lc = Array.make (Array.length t.code) cold_long in
        let entries = !cache in
        let entries =
          if List.length entries >= lc_cache_max then
            List.filteri (fun i _ -> i < lc_cache_max - 1) entries
          else entries
        in
        cache := (t.code, lc) :: entries;
        lc
  end

(* Run compiled closures until the machine leaves [Running], [lim] cycles
   have been charged, or [quantum] INTERP transfers have completed since
   [qstart] — always stopping on an instruction boundary.  Anything the
   fast path can't serve (pc out of range, short word outside the window,
   undecodable opcode) takes one reference [step].  Callers must ensure
   [lim <= fuel] so the fallback [step] cannot spuriously run out of
   fuel mid-span. *)
let exec_threaded_span t ~lim ~qstart ~quantum =
  let stats = t.stats in
  while
    t.status == Running && stats.cycles < lim
    && stats.interp_count - qstart < quantum
  do
    if t.pc_short then begin
      let base = t.sc_base and size = t.sc_size in
      if t.pc_addr - base >= 0 && t.pc_addr - base < size then (
        let sc = t.sc_table in
        try
          while
            t.status == Running && t.pc_short && stats.cycles < lim
            && stats.interp_count - qstart < quantum
            &&
            let j = t.pc_addr - base in
            j >= 0 && j < size
          do
            let j = t.pc_addr - base in
            (Array.unsafe_get
               (Array.unsafe_get sc (j lsr sc_chunk_bits))
               (j land sc_chunk_mask))
              t
          done
        with Machine_trap msg -> t.status <- Trapped msg)
      else step t
    end
    else begin
      if Array.length t.lc = 0 && Array.length t.code > 0 then
        t.lc <- lc_for t;
      let lc = t.lc in
      let n = Array.length lc in
      if t.pc_addr >= 0 && t.pc_addr < n then (
        (* no quantum check: long instructions never complete an INTERP *)
        try
          while
            t.status == Running && (not t.pc_short) && stats.cycles < lim
            && t.pc_addr >= 0 && t.pc_addr < n
          do
            (Array.unsafe_get lc t.pc_addr) t
          done
        with Machine_trap msg -> t.status <- Trapped msg)
      else step t
    end
  done

(* One span on the machine's backend: the only place the run loops below
   look at which backend they drive. *)
let exec_span t ~lim ~qstart ~quantum =
  if t.threaded then exec_threaded_span t ~lim ~qstart ~quantum
  else exec_decode_span t ~lim ~qstart ~quantum

let run t =
  while t.status = Running do
    exec_span t ~lim:t.fuel ~qstart:0 ~quantum:max_int;
    (* still running => cycles >= fuel; one [step] marks Out_of_fuel *)
    if t.status = Running then step t
  done;
  t.status

(* -- Resumable execution -----------------------------------------------------
   The multiprogramming scheduler runs each program in slices on its own
   machine.  Both entry points below, like [run], drive [exec_span] with
   limits that make it execute exactly the [step]s a plain [step] loop
   would, and stop only between instructions, so running a program in K
   slices (for any K and any slice boundaries) produces bit-identical
   final state, statistics and output to one [run] call. *)

type run_outcome =
  | Done of status
  | Yielded

let run_for t ~budget =
  if budget < 0 then invalid_arg "Machine.run_for: negative budget";
  (* saturate: a budget near max_int must mean "run to completion", not
     wrap t.stats.cycles + budget to a stop in the past *)
  let stop =
    if budget > max_int - t.stats.cycles then max_int
    else t.stats.cycles + budget
  in
  exec_span t ~lim:(if stop < t.fuel then stop else t.fuel) ~qstart:0
    ~quantum:max_int;
  (* still running with budget left => the span stopped at the fuel limit;
     one [step] marks Out_of_fuel, as a [step] loop would on its next
     iteration *)
  if t.status = Running && t.stats.cycles < stop then step t;
  if t.status = Running then Yielded else Done t.status

let interp_imm_op = Short_format.op_to_int Short_format.Interp_imm
let interp_stk_op = Short_format.op_to_int Short_format.Interp_stk

(* True when the pc rests on an INTERP word (about to transfer to the next
   DIR instruction).  Only these points are safe preemption points for a
   shared DTB: mid-translation the pc sits inside a buffer unit that a
   context switch could flush or evict out from under it, whereas an
   INTERP word lives in the program's own memory and re-misses harmlessly
   after any amount of DTB churn. *)
let at_interp_boundary t =
  t.pc_short
  && t.pc_addr >= 0
  && t.pc_addr < t.mem_words
  &&
  let op = Short_format.unpack_op (mem_get t t.pc_addr) in
  op = interp_imm_op || op = interp_stk_op

let run_dir_quantum t ~quantum =
  if quantum < 1 then
    invalid_arg "Machine.run_dir_quantum: quantum must be >= 1";
  let stats = t.stats in
  let start = stats.interp_count in
  while
    t.status = Running
    && not (stats.interp_count - start >= quantum && at_interp_boundary t)
  do
    (* past the quota but not yet at an INTERP boundary (or out of fuel):
       finish the translation unit one [step] at a time; otherwise run a
       span up to the quota *)
    if stats.cycles >= t.fuel || stats.interp_count - start >= quantum then
      step t
    else exec_span t ~lim:t.fuel ~qstart:start ~quantum
  done;
  if t.status = Running then Yielded else Done t.status

(* -- Snapshots --------------------------------------------------------------- *)

type snapshot = {
  snap_pc : pc;
  snap_status : status;
  snap_regs : int array;
  snap_cycles : int;
  snap_interp_count : int;
  snap_op_stack : int list;
  snap_ret_stack : int list;
}

(* The words below a stack pointer, top first, clipped to the region the
   stack lives in (each stack is its own region in every layout).  Read
   with [mem_get]: inspection charges no cycles. *)
let stack_contents t ptr =
  if ptr <= 0 || ptr > t.mem_words then []
  else
    match
      Array.find_opt
        (fun r -> ptr - 1 >= r.base && ptr - 1 < r.base + r.size)
        t.regions
    with
    | None -> []
    | Some r ->
        let rec go acc a =
          if a < r.base then List.rev acc else go (mem_get t a :: acc) (a - 1)
        in
        List.rev (go [] (ptr - 1))

let snapshot t =
  {
    snap_pc = pc t;
    snap_status = t.status;
    snap_regs = Array.copy t.regs;
    snap_cycles = t.stats.cycles;
    snap_interp_count = t.stats.interp_count;
    snap_op_stack = stack_contents t t.regs.(H.Regs.sp);
    snap_ret_stack = stack_contents t t.regs.(H.Regs.rsp);
  }

(* -- Checkpoints --------------------------------------------------------------
   Full-state capture for the resilience layer's rollback-and-replay: the
   written pages, the register file, the pc, the status, the output length
   and the IFU's buffered unit.  Memory is copy-on-write: the checkpoint
   shares the machine's pages and disowns them, so taking one copies no
   page, and a page is copied only when the machine next writes it.  A
   checkpoint lists only the non-zero pages, by index, so it costs what
   the machine has written rather than a whole page table.
   Statistics are deliberately NOT captured or restored — replayed
   instructions are re-charged, so the cycle cost of a rollback stays
   visible in the accounts, exactly like the retranslation cost after an
   invalidate. *)

type checkpoint = {
  ck_index : int array;       (* page-table index of each non-zero page *)
  ck_page : int array array;  (* never written: every page is unowned *)
  ck_pages : int;             (* charged pages, what the checkpoint costs *)
  ck_regs : int array;
  ck_pc_short : bool;
  ck_pc_addr : int;
  ck_status : status;
  ck_out_len : int;
  ck_buffered : int;
}

let checkpoint t =
  let n = t.n_used in
  let ck_index = Array.sub t.used 0 n and ck_page = Array.make n zero_page in
  (* [used] is ascending, so the pages of one charged page are adjacent *)
  let charged = ref 0 and last = ref (-1) in
  for k = 0 to n - 1 do
    let i = ck_index.(k) in
    ck_page.(k) <- t.mem.(i);
    Bytes.unsafe_set t.owned i '\000';
    let c = i lsr (charge_page_bits - page_bits) in
    if c <> !last then begin
      incr charged;
      last := c
    end
  done;
  {
    ck_index;
    ck_page;
    ck_pages = !charged;
    ck_regs = Array.copy t.regs;
    ck_pc_short = t.pc_short;
    ck_pc_addr = t.pc_addr;
    ck_status = t.status;
    ck_out_len = Buffer.length t.out;
    ck_buffered = t.dir_buffered_unit;
  }

let checkpoint_pages ck = ck.ck_pages

let restore t ck =
  release_pages t;
  let n = Array.length ck.ck_index in
  if n > Array.length t.used then t.used <- Array.make n 0;
  Array.blit ck.ck_index 0 t.used 0 n;
  t.n_used <- n;
  Array.iteri (fun k i -> t.mem.(i) <- ck.ck_page.(k)) ck.ck_index;
  (* the page swap bypasses [mem_set]: drop every compiled short closure
     so no slot can disagree with the restored memory *)
  if t.sc_size > 0 then
    Array.fill t.sc_table 0 (Array.length t.sc_table) !cold_chunk_cell;
  Array.blit ck.ck_regs 0 t.regs 0 (Array.length t.regs);
  t.pc_short <- ck.ck_pc_short;
  t.pc_addr <- ck.ck_pc_addr;
  t.status <- ck.ck_status;
  if Buffer.length t.out > ck.ck_out_len then Buffer.truncate t.out ck.ck_out_len;
  t.dir_buffered_unit <- ck.ck_buffered
