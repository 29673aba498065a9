(* Glue between the journal and the supervised sweep; see campaign.mli. *)

module Sweep = Uhm_core.Sweep

exception Mismatch of string

type 'b setup = {
  cached : int -> 'b option;
  cell_hook : (index:int -> attempts:int -> 'b Sweep.slot -> unit) option;
  close : unit -> unit;
  resumed : int;
}

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let check_header ~campaign ~fp ~cells (h : Journal.header) =
  if h.Journal.campaign <> campaign then
    mismatch
      "journal was written by campaign %S, this run is %S — refusing to mix"
      h.Journal.campaign campaign;
  if h.Journal.cells <> cells then
    mismatch
      "journal covers a grid of %d cells, this run has %d — the axes \
       changed; refusing to mix"
      h.Journal.cells cells;
  if h.Journal.fingerprint <> fp then
    mismatch
      "journal fingerprint %s does not match this run's %s — the \
       configuration changed; refusing to mix"
      h.Journal.fingerprint fp

let default_compact_threshold = 64

let prepare ?journal ?resume ?(compact_threshold = default_compact_threshold)
    ~campaign ~fingerprint ~cells () =
  let fp = Journal.fingerprint fingerprint in
  let header = { Journal.campaign; fingerprint = fp; cells } in
  (* 1. load the resume journal, if any *)
  let loaded =
    match resume with
    | None -> None
    | Some path when not (Sys.file_exists path) ->
        Printf.eprintf
          "uhm campaign: note: resume journal %s does not exist; starting \
           fresh\n%!"
          path;
        None
    | Some path -> (
        match Journal.load ~path with
        | Error (Journal.No_header msg) ->
            (* the kill landed before the header fsync: nothing durable
               was lost, so treat the file like a missing one *)
            Printf.eprintf
              "uhm campaign: note: %s in %s; starting fresh\n%!" msg path;
            None
        | Error (Journal.Corrupt msg) ->
            mismatch "cannot resume from %s: %s" path msg
        | Ok l ->
            check_header ~campaign ~fp ~cells l.Journal.l_header;
            if l.Journal.l_torn then
              Printf.eprintf
                "uhm campaign: note: dropped a torn final record in %s; \
                 that cell will be recomputed\n%!"
                path;
            Some (path, l))
  in
  (* 2. fold the records, last-wins per cell; only ok cells are reusable
        (quarantined cells are retried on resume) *)
  let tbl : (int, int * string) Hashtbl.t = Hashtbl.create 64 in
  (match loaded with
  | None -> ()
  | Some (_, l) ->
      List.iter
        (fun (r : Journal.record) ->
          match r.Journal.outcome with
          | Journal.Ok_cell payload ->
              Hashtbl.replace tbl r.Journal.cell (r.Journal.attempts, payload)
          | Journal.Quarantined_cell _ -> Hashtbl.remove tbl r.Journal.cell)
        l.Journal.l_records);
  let resumed = Hashtbl.length tbl in
  (* 3. open the output journal *)
  let writer =
    match journal with
    | None -> None
    | Some path -> (
        match loaded with
        | Some (rpath, l) when rpath = path ->
            (* in-place resume: keep the durable prefix, drop any torn
               tail, append from there.  A journal resumed many times
               accumulates superseded records (one per recomputed cell);
               once enough have piled up, compact opportunistically —
               resume state is unchanged, only the retired lines go. *)
            let distinct =
              let seen = Hashtbl.create 64 in
              List.iter
                (fun (r : Journal.record) ->
                  Hashtbl.replace seen r.Journal.cell ())
                l.Journal.l_records;
              Hashtbl.length seen
            in
            let retired = List.length l.Journal.l_records - distinct in
            let valid_bytes =
              if retired < compact_threshold then l.Journal.l_valid_bytes
              else
                match Journal.compact ~path with
                | Ok c ->
                    Printf.eprintf
                      "uhm campaign: note: compacted %s (%d superseded \
                       record(s) retired, %d kept)\n%!"
                      path c.Journal.c_retired c.Journal.c_kept;
                    c.Journal.c_valid_bytes
                | Error e ->
                    (* the journal loaded fine a moment ago; a racing
                       writer or IO error is not worth failing the run
                       over — just skip compaction *)
                    Printf.eprintf
                      "uhm campaign: note: compaction of %s skipped: %s\n%!"
                      path (Journal.load_error_message e);
                    l.Journal.l_valid_bytes
            in
            Some (Journal.reopen ~path ~valid_bytes)
        | _ ->
            let w = Journal.create ~path header in
            (* replay the reusable cells so the new journal is
               self-contained *)
            List.iter
              (fun (cell, (attempts, payload)) ->
                Journal.append w
                  { Journal.cell; attempts; outcome = Journal.Ok_cell payload })
              (List.sort compare
                 (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []));
            Some w)
  in
  let cached i =
    match Hashtbl.find_opt tbl i with
    | Some (_, payload) -> Some (Marshal.from_string payload 0)
    | None -> None
  in
  let cell_hook =
    match writer with
    | None -> None
    | Some w ->
        Some
          (fun ~index ~attempts (slot : _ Sweep.slot) ->
            let outcome =
              match slot with
              | Sweep.Completed v -> Journal.Ok_cell (Marshal.to_string v [])
              | Sweep.Quarantined q -> Journal.Quarantined_cell q.Sweep.q_reason
            in
            Journal.append w { Journal.cell = index; attempts; outcome })
  in
  let close () = match writer with None -> () | Some w -> Journal.close w in
  { cached; cell_hook; close; resumed }

let run ?journal ?resume ~campaign ~fingerprint ~cells grid =
  let setup = prepare ?journal ?resume ~campaign ~fingerprint ~cells () in
  Fun.protect ~finally:setup.close (fun () -> grid setup)
