(** Crash-safe campaigns: wire a {!Journal} to a supervised sweep.

    [prepare] resolves the [--journal]/[--resume] pair for one grid
    campaign and hands back exactly the two closures
    {!Uhm_core.Sweep.map_pool_supervised} wants:

    - [cached i] serves cell [i] from the resume journal (deserialised
      with [Marshal]); the sweep then skips recomputing it.  Cells whose
      last journal record is a quarantine are {e not} served — a resume
      retries them.
    - [cell_hook] appends one fsync'd record per freshly computed cell,
      so at any kill point the journal holds every completed cell.

    Safety: the journal header carries the campaign name, the cell count
    and a fingerprint over the grid axes.  Any mismatch raises
    {!Mismatch} — a resume can never silently mix cells from two
    different configurations into one report.  A corrupt journal
    (interior damage, malformed header) also raises {!Mismatch}.  Two
    crash shapes are recovered automatically instead: a torn {e final}
    record line is dropped (that cell is recomputed), and a file whose
    {e header} never became durable — the kill landed inside journal
    creation, before anything was recorded — is treated as a fresh
    start.

    Journal payloads are [Marshal]-encoded: a journal is only meaningful
    to the binary that wrote it.  Include anything the result layout
    depends on in the [fingerprint] parts. *)

exception Mismatch of string
(** The resume journal cannot be used for this run (wrong campaign,
    wrong axes, wrong fingerprint, or corrupt).  CLI callers map this to
    exit code 2 (malformed input). *)

type 'b setup = {
  cached : int -> 'b option;
      (** serve a cell from the resume journal, if recorded ok *)
  cell_hook : (index:int -> attempts:int -> 'b Uhm_core.Sweep.slot -> unit) option;
      (** journal append hook; [None] when no [--journal] was given *)
  close : unit -> unit;
      (** final fsync + close of the journal (idempotent, safe with no
          journal) *)
  resumed : int;
      (** cells that will be served from the resume journal *)
}

val default_compact_threshold : int
(** Retired-record count past which an in-place resume compacts first. *)

val prepare :
  ?journal:string ->
  ?resume:string ->
  ?compact_threshold:int ->
  campaign:string ->
  fingerprint:string list ->
  cells:int ->
  unit ->
  'b setup
(** [prepare ~journal ~resume ~campaign ~fingerprint ~cells ()]:

    - [resume]: load this journal and serve its ok cells via [cached].
      A non-existent file is a fresh start (with a stderr note), so a
      campaign can be launched with [--journal f --resume f]
      unconditionally and re-run until it completes.
    - [journal]: record this run.  When it is the same path as [resume],
      the file is truncated to its durable prefix and appended in place;
      otherwise a fresh journal is written, seeded with the reusable
      cells of the resume journal so it is self-contained.
    - [compact_threshold] (default {!default_compact_threshold}): on an
      in-place resume, when at least this many superseded records have
      accumulated (cells recorded more than once across earlier resumes),
      the journal is first compacted via {!Journal.compact}.  Resume
      state is unaffected; compaction failure only skips the compaction.

    Raises {!Mismatch} as described above.  The ['b] must be the cell
    result type of the grid this campaign runs — the same [prepare]
    result must not be shared between grids of different cell types. *)

val run :
  ?journal:string ->
  ?resume:string ->
  campaign:string ->
  fingerprint:string list ->
  cells:int ->
  ('b setup -> 'r) ->
  'r
(** [run ~campaign ~fingerprint ~cells grid]: one whole campaign —
    {!prepare}, then [grid setup] (which runs the supervised grid with
    [setup.cached] and [setup.cell_hook]), then [setup.close].  The
    journal is closed even when [grid] raises, for instance when a
    journal append fails inside the sweep.  Raises {!Mismatch} as
    {!prepare} does, before [grid] is called. *)
