type config = {
  sets : int;
  assoc : int;
  unit_words : int;
  overflow_blocks : int;
}

let config_capacity_words c =
  ((c.sets * c.assoc) + c.overflow_blocks) * c.unit_words

(* 4096 bytes of buffer at 16 bits per short word = 2048 words; with 4-word
   units and 4-way sets that is 96 sets of primaries + overflow, rounded to
   the nearest power-of-two set count: 64 sets * 4 ways * 4 words = 1024
   primary words + 256 overflow blocks * 4 = 1024 overflow words. *)
let paper_config = { sets = 64; assoc = 4; unit_words = 4; overflow_blocks = 256 }

(* Multiprogramming ownership policies for a DTB shared between address
   spaces (see dtb.mli). *)
type policy =
  | Flush_on_switch
  | Tagged
  | Partitioned

let policy_name = function
  | Flush_on_switch -> "flush"
  | Tagged -> "tagged"
  | Partitioned -> "partitioned"

type entry = {
  mutable tag : int;          (* lookup key; -1 invalid *)
  mutable stamp : int;        (* recency timestamp; larger = more recent *)
  mutable chain : int;        (* overflow blocks owned: the index of the
                                 most recently linked one, the rest
                                 through [next]; -1 = none *)
  unit_addr : int;            (* primary unit address *)
}

(* The open-translation slot when no translation is open; never mutated. *)
let closed = { tag = -1; stamp = 0; chain = -1; unit_addr = -1 }

type t = {
  cfg : config;
  entries : entry array array; (* sets x ways *)
  mutable clock : int;         (* recency clock for the replacement array *)
  (* overflow blocks, by index: [next] links each owned chain and the free
     list, -1 ending both; [free_canonical] is [next] as [create] builds
     it, block 0 first, which [flush] restores without allocating *)
  next : int array;
  free_canonical : int array;
  mutable free_head : int;
  overflow_base : int;         (* first overflow block address *)
  (* single-entry "last translation" cache in front of the tag array: the
     common hit-again-immediately case (a tight DIR loop re-entering the
     same translation) skips the set hash and the way scan.  Entry tags
     change only in [begin_translation], [flush] and [invalidate_asid],
     all of which refresh or clear this cache, so a matching [last_tag]
     is always authoritative.  [use_last_cache] exists so tests can
     differentially check the shortcut against the plain lookup path. *)
  use_last_cache : bool;
  mutable last_tag : int;      (* -1 = empty; a *key*, i.e. ASID-qualified
                                  under Tagged/Partitioned sharing *)
  mutable last_set : int;
  mutable last_way : int;
  (* sharing state; a private DTB is the degenerate single-program case *)
  sharing : policy option;
  programs : int;
  asid_bits : int;             (* 0 when keys are raw DIR addresses *)
  partitions : (int * int) array; (* (first set, set count) per ASID;
                                     empty unless Partitioned *)
  mutable current : int;       (* ASID whose lookups are being served *)
  (* per-ASID activity stamps for the load service's eviction economy:
     the recency-clock value of each ASID's most recent lookup hit or
     installation.  Never reset — [flush] restores the directory, not the
     accounting — so "idle since" comparisons stay monotone. *)
  last_use : int array;
  mutable flushes : int;
  (* open translation state *)
  mutable open_entry : entry;  (* [closed] when none is open *)
  mutable cursor : int;       (* next write address *)
  mutable block_end : int;    (* first address past the current block's
                                 payload (the reserved chain slot) *)
  mutable chain_slot : int;   (* the slot the last [emit] linked through;
                                 -1 if it stayed in its block *)
  mutable start_addr : int;
  (* statistics *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable overflow_allocs : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(last_cache = true) cfg ~buffer_base =
  if not (is_power_of_two cfg.sets) then
    invalid_arg "Dtb.create: set count must be a power of two";
  if cfg.unit_words < 2 then invalid_arg "Dtb.create: unit too small";
  let assoc = if cfg.assoc = 0 then cfg.sets else cfg.assoc in
  let cfg = { cfg with assoc } in
  let entries =
    Array.init cfg.sets (fun s ->
        Array.init cfg.assoc (fun w ->
            {
              tag = -1;
              (* way 0 most recent, way [assoc-1] first victim *)
              stamp = -w;
              chain = -1;
              unit_addr =
                buffer_base + (((s * cfg.assoc) + w) * cfg.unit_words);
            }))
  in
  let overflow_base = buffer_base + (cfg.sets * cfg.assoc * cfg.unit_words) in
  let free_canonical =
    Array.init cfg.overflow_blocks (fun i ->
        if i + 1 < cfg.overflow_blocks then i + 1 else -1)
  in
  {
    cfg;
    entries;
    clock = 0;
    next = Array.copy free_canonical;
    free_canonical;
    free_head = (if cfg.overflow_blocks > 0 then 0 else -1);
    overflow_base;
    use_last_cache = last_cache;
    last_tag = -1;
    last_set = 0;
    last_way = 0;
    sharing = None;
    programs = 1;
    asid_bits = 0;
    partitions = [||];
    current = 0;
    last_use = Array.make 1 0;
    flushes = 0;
    open_entry = closed;
    cursor = 0;
    block_end = 0;
    chain_slot = -1;
    start_addr = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    overflow_allocs = 0;
  }

let rec ceil_log2 n = if n <= 1 then 0 else 1 + ceil_log2 ((n + 1) / 2)

let create_shared ?last_cache ~policy ~programs cfg ~buffer_base =
  if programs < 1 then invalid_arg "Dtb.create_shared: programs must be >= 1";
  (match policy with
  | Partitioned when programs > cfg.sets ->
      invalid_arg "Dtb.create_shared: more programs than sets to partition"
  | _ -> ());
  let t = create ?last_cache cfg ~buffer_base in
  let asid_bits =
    match policy with
    | Flush_on_switch -> 0
    | Tagged | Partitioned -> ceil_log2 programs
  in
  let partitions =
    match policy with
    | Partitioned ->
        (* [sets/programs] sets each, the remainder spread one per ASID
           from ASID 0 up *)
        let k = t.cfg.sets / programs and rem = t.cfg.sets mod programs in
        Array.init programs (fun i ->
            let base = (i * k) + min i rem in
            (base, k + if i < rem then 1 else 0))
    | Flush_on_switch | Tagged -> [||]
  in
  { t with sharing = Some policy; programs; asid_bits; partitions;
    last_use = Array.make programs 0 }

let buffer_words t = config_capacity_words t.cfg

(* The set-selection hash of Figure 2.  DIR addresses are bit addresses, so
   neighbouring instructions differ in the low bits; a simple shift-and-mask
   spreads them well (the hash is a config point for ablations via [sets]).
   [tag] is the raw DIR address: under Tagged sharing the set index ignores
   the ASID (the ASID participates only in the tag match, as in an
   ASID-tagged TLB), so a program's set mapping is identical to the mapping
   it would see on a private DTB.  Under Partitioned sharing the hash is
   folded into the current program's set range instead. *)
let set_of t tag =
  let h = tag lxor (tag lsr 7) in
  if Array.length t.partitions = 0 then h land (t.cfg.sets - 1)
  else
    let base, size = t.partitions.(t.current) in
    base + (h mod size)

(* The key stored in the tag array: the DIR address, ASID-qualified when the
   policy keeps several programs' translations resident at once.  When
   [asid_bits] = 0 the key must be the raw tag even if [current] is nonzero
   (Flush_on_switch tracks the running ASID but relies on the flush, not the
   key, for isolation); folding [current] in with a zero shift would alias
   adjacent DIR addresses, e.g. tags 2k and 2k+1 both keying as 2k lor 1. *)
let key_of t tag =
  if t.asid_bits = 0 then tag else (tag lsl t.asid_bits) lor t.current

(* O(1) timestamp recency in place of the O(assoc) counter shuffle; the
   victim scan in [begin_translation] picks the minimum stamp, which is the
   same entry counter LRU would evict. *)
let touch t set way =
  t.clock <- t.clock + 1;
  t.entries.(set).(way).stamp <- t.clock;
  (* the toucher is always the current ASID: lookup hits and
     installations are the only callers *)
  t.last_use.(t.current) <- t.clock

let lookup_addr t ~tag =
  let key = key_of t tag in
  if t.use_last_cache && key = t.last_tag then begin
    (* shortcut hit: identical statistics and recency update to the full
       probe below, so hit/miss/eviction counts cannot drift *)
    t.hits <- t.hits + 1;
    touch t t.last_set t.last_way;
    t.entries.(t.last_set).(t.last_way).unit_addr
  end
  else begin
    let set = set_of t tag in
    let ways = t.entries.(set) in
    let n = Array.length ways in
    let w = ref 0 in
    while !w < n && (Array.unsafe_get ways !w).tag <> key do incr w done;
    if !w < n then begin
      t.hits <- t.hits + 1;
      touch t set !w;
      t.last_tag <- key;
      t.last_set <- set;
      t.last_way <- !w;
      (Array.unsafe_get ways !w).unit_addr
    end
    else begin
      t.misses <- t.misses + 1;
      -1
    end
  end

let lookup t ~tag =
  match lookup_addr t ~tag with -1 -> `Miss | addr -> `Hit addr

(* Return [e]'s overflow chain to the front of the free list, most
   recently linked block first. *)
let release_chain t e =
  if e.chain >= 0 then begin
    let b = ref e.chain in
    while t.next.(!b) >= 0 do
      b := t.next.(!b)
    done;
    t.next.(!b) <- t.free_head;
    t.free_head <- e.chain;
    e.chain <- -1
  end

let begin_translation t ~tag =
  if t.open_entry != closed then failwith "Dtb: translation already open";
  let key = key_of t tag in
  let set = set_of t tag in
  let ways = t.entries.(set) in
  let victim = ref 0 in
  for w = 1 to Array.length ways - 1 do
    if ways.(w).stamp < ways.(!victim).stamp then victim := w
  done;
  let e = ways.(!victim) in
  if e.tag >= 0 then begin
    t.evictions <- t.evictions + 1;
    (* the replacement logic releases the victim's overflow chain *)
    release_chain t e
  end;
  e.tag <- key;
  touch t set !victim;
  (* a place a tag changes: point the last-translation cache at the
     entry being (re)installed so it can never go stale *)
  t.last_tag <- key;
  t.last_set <- set;
  t.last_way <- !victim;
  t.open_entry <- e;
  t.cursor <- e.unit_addr;
  t.block_end <- e.unit_addr + t.cfg.unit_words - 1;
  t.start_addr <- e.unit_addr

let emit t _word =
  let e = t.open_entry in
  if e == closed then failwith "Dtb.emit: no open translation";
  if t.cursor < t.block_end then begin
    let addr = t.cursor in
    t.cursor <- addr + 1;
    t.chain_slot <- -1;
    addr
  end
  else begin
    (* current block full: chain a fresh overflow block through the
       reserved slot *)
    let b = t.free_head in
    if b < 0 then failwith "Dtb.emit: overflow area exhausted";
    t.free_head <- t.next.(b);
    t.overflow_allocs <- t.overflow_allocs + 1;
    t.next.(b) <- e.chain;
    e.chain <- b;
    t.chain_slot <- t.block_end;
    let block = t.overflow_base + (b * t.cfg.unit_words) in
    t.cursor <- block + 1;
    t.block_end <- block + t.cfg.unit_words - 1;
    block
  end

let chain_slot t = t.chain_slot

let end_translation t =
  if t.open_entry == closed then
    failwith "Dtb.end_translation: no open translation";
  t.open_entry <- closed;
  t.start_addr

(* A translation that will never complete — the translating machine
   stopped on a fault mid-install — must not leave the directory open:
   every flush/invalidate entry point refuses while a translation is in
   progress.  Aborting drops the half-installed entry (the tag went live
   at [begin_translation]) and returns its overflow chain, leaving the
   directory exactly as if the miss had never been serviced. *)
let abort_translation t =
  let e = t.open_entry in
  if e == closed then failwith "Dtb.abort_translation: no open translation";
  if t.last_tag = e.tag then t.last_tag <- -1;
  e.tag <- -1;
  release_chain t e;
  t.open_entry <- closed

(* -- Multiprogramming --------------------------------------------------------

   [flush] restores the directory to its creation state exactly (tags,
   per-way stamp order, canonical free-block order), so a run after a flush
   is indistinguishable from a run on a fresh DTB: the quantum-to-infinity
   limit of Flush_on_switch scheduling reproduces single-program results
   bit for bit.  Cumulative statistics and the recency clock survive. *)

let flush t =
  if t.open_entry != closed then failwith "Dtb.flush: translation open";
  for s = 0 to Array.length t.entries - 1 do
    let ways = t.entries.(s) in
    for w = 0 to Array.length ways - 1 do
      let e = ways.(w) in
      e.tag <- -1;
      e.stamp <- -w;
      e.chain <- -1
    done
  done;
  Array.blit t.free_canonical 0 t.next 0 (Array.length t.next);
  t.free_head <- (if Array.length t.next > 0 then 0 else -1);
  (* PR 2's single-entry shortcut caches a (key, set, way) triple outside
     the tag array; clearing the array without clearing the shortcut would
     let a stale hit survive the flush *)
  t.last_tag <- -1;
  t.flushes <- t.flushes + 1

let invalidate_asid t ~asid =
  if t.asid_bits = 0 && t.sharing <> None then
    invalid_arg "Dtb.invalidate_asid: DTB is not ASID-tagged";
  if t.sharing = None then invalid_arg "Dtb.invalidate_asid: private DTB";
  if asid < 0 || asid >= t.programs then
    invalid_arg "Dtb.invalidate_asid: ASID out of range";
  if t.open_entry != closed then
    failwith "Dtb.invalidate_asid: translation open";
  let mask = (1 lsl t.asid_bits) - 1 in
  let dropped = ref 0 in
  Array.iter
    (fun ways ->
      Array.iter
        (fun e ->
          if e.tag >= 0 && e.tag land mask = asid then begin
            incr dropped;
            e.tag <- -1;
            release_chain t e
          end)
        ways)
    t.entries;
  (* same coherence rule as [flush]: the shortcut must not outlive the
     entries it points at *)
  if t.last_tag >= 0 && t.last_tag land mask = asid then t.last_tag <- -1;
  !dropped

let switch_to t ~asid =
  match t.sharing with
  | None -> invalid_arg "Dtb.switch_to: private DTB"
  | Some policy ->
      if asid < 0 || asid >= t.programs then
        invalid_arg "Dtb.switch_to: ASID out of range";
      if asid <> t.current then begin
        t.current <- asid;
        match policy with
        | Flush_on_switch -> flush t
        | Tagged | Partitioned -> ()
      end

let sharing t = t.sharing
let current_asid t = t.current

let hits t = t.hits
let misses t = t.misses

let hit_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.hits /. float_of_int total

let evictions t = t.evictions
let overflow_allocations t = t.overflow_allocs
let flushes t = t.flushes

let resident_entries t =
  Array.fold_left
    (fun acc ways ->
      acc + Array.fold_left (fun a e -> if e.tag >= 0 then a + 1 else a) 0 ways)
    0 t.entries

(* -- Per-ASID idle/footprint accounting --------------------------------------

   The load service's eviction economy scores resident ASIDs by how long
   they have been idle (in recency-clock ticks, the DTB's own notion of
   time) and how much of the directory they hold.  Footprint is an exact
   scan rather than an incrementally maintained counter: it is read a
   handful of times per admission, and a scan cannot drift from the tag
   array under corruption or recovery invalidations. *)

let use_clock t = t.clock

let asid_last_use t ~asid =
  if asid < 0 || asid >= t.programs then
    invalid_arg "Dtb.asid_last_use: ASID out of range";
  t.last_use.(asid)

let asid_footprint t ~asid =
  if asid < 0 || asid >= t.programs then
    invalid_arg "Dtb.asid_footprint: ASID out of range";
  if t.asid_bits = 0 then
    (* untagged keys: everything resident belongs to the current ASID *)
    if asid = t.current then resident_entries t else 0
  else
    let mask = (1 lsl t.asid_bits) - 1 in
    Array.fold_left
      (fun acc ways ->
        acc
        + Array.fold_left
            (fun a e -> if e.tag >= 0 && e.tag land mask = asid then a + 1 else a)
            0 ways)
      0 t.entries

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.overflow_allocs <- 0

(* -- Resilience hooks --------------------------------------------------------

   [invalidate] is the recovery path's targeted drop: a guard mismatch on a
   hit means the entry the key led to cannot be trusted, so the entry (and,
   after tag corruption, any duplicate carrying the same key) is removed
   and the next INTERP re-misses and retranslates.  [corrupt_resident_tag]
   is the injection side: it models a single-event upset in the associative
   tag array.  The last-translation shortcut mirrors the tag array in both
   directions — corruption updates a mirrored key, invalidation clears it —
   so the shortcut can neither mask nor outlive a fault in the array it
   caches. *)

let invalidate t ~tag =
  if t.open_entry != closed then failwith "Dtb.invalidate: translation open";
  let key = key_of t tag in
  let set = set_of t tag in
  let dropped = ref false in
  Array.iter
    (fun e ->
      if e.tag = key then begin
        dropped := true;
        e.tag <- -1;
        release_chain t e
      end)
    t.entries.(set);
  if t.last_tag = key then t.last_tag <- -1;
  !dropped

(* Key width reachable by a flip: DIR bit addresses stay well under 2^20
   for every suite program, plus the ASID qualifier bits. *)
let key_flip_bits = 20

let corrupt_resident_tag t ~pick ~flip =
  if t.open_entry != closed then
    failwith "Dtb.corrupt_resident_tag: translation open";
  let resident = resident_entries t in
  if resident = 0 then None
  else begin
    let target = ((pick mod resident) + resident) mod resident in
    let found = ref None in
    let seen = ref 0 in
    (try
       Array.iteri
         (fun s ways ->
           Array.iteri
             (fun w e ->
               if e.tag >= 0 then begin
                 if !seen = target then begin
                   found := Some (s, w, e);
                   raise Exit
                 end;
                 incr seen
               end)
             ways)
         t.entries
     with Exit -> ());
    match !found with
    | None -> None
    | Some (s, w, e) ->
        let bits = key_flip_bits + t.asid_bits in
        let old_key = e.tag in
        let bit = ((flip mod bits) + bits) mod bits in
        let new_key = old_key lxor (1 lsl bit) in
        e.tag <- new_key;
        if t.use_last_cache && t.last_set = s && t.last_way = w
           && t.last_tag = old_key
        then t.last_tag <- new_key;
        Some (old_key, new_key)
  end
