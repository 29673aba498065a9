(* In-memory spans around the calls the benchmark makes into each layer,
   with exact self-time arithmetic and a Chrome trace_event export. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  op : int;      (* the op the span belongs to; negative in set-up *)
  parent : int;  (* -1 for a root *)
  start_ns : int;
  stop_ns : int;
}

(* Per-INTERP events are too many to keep one record each: they are
   summed under the span that was open when they happened. *)
type agg = { a_parent : int; a_name : string; a_count : int; a_ns : int }

type t = {
  mutable spans : span list;  (* finished spans, newest first *)
  mutable aggs : agg list;
  mutable open_ : int list;   (* ids of the open spans, innermost first *)
  mutable next_id : int;
  mutable op : int;
}

let create () = { spans = []; aggs = []; open_ = []; next_id = 0; op = -1 }

let set_op t op = t.op <- op

let with_span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start_ns = now_ns () in
  let close () =
    let stop_ns = now_ns () in
    t.open_ <- List.tl t.open_;
    t.spans <- { id; name; op = t.op; parent; start_ns; stop_ns } :: t.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let add_agg t ~name ~count ~ns =
  match t.open_ with
  | parent :: _ ->
      t.aggs <- { a_parent = parent; a_name = name; a_count = count; a_ns = ns }
                :: t.aggs
  | [] -> invalid_arg "Span.add_agg: no open span"

let spans t = List.rev t.spans

(* Length of the union of [intervals] clipped to [lo, hi]: children that
   overlap each other or stick out of their parent are counted once, and
   only inside the parent. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Self time of every span, in ns: its duration minus the part of it its
   child spans cover, minus the aggregates summed under it. *)
let self_times t =
  let children = Hashtbl.create 1024 and agg_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    t.spans;
  List.iter
    (fun a ->
      Hashtbl.replace agg_ns a.a_parent
        (a.a_ns + Option.value ~default:0 (Hashtbl.find_opt agg_ns a.a_parent)))
    t.aggs;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let under = Option.value ~default:0 (Hashtbl.find_opt agg_ns s.id) in
      (s, s.stop_ns - s.start_ns - covered ~lo:s.start_ns ~hi:s.stop_ns kids
          - under))
    (spans t)

type layer = { l_name : string; l_count : int; l_self_ns : int }

(* Self time summed per layer (span or aggregate name), and the summed
   duration of the root spans: the two totals must agree exactly. *)
let layer_table t =
  let tbl = Hashtbl.create 16 in
  let add name count ns =
    let c, n = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (c + count, n + ns)
  in
  List.iter (fun (s, self) -> add s.name 1 self) (self_times t);
  List.iter (fun a -> add a.a_name a.a_count a.a_ns) t.aggs;
  let layers =
    Hashtbl.fold
      (fun l_name (l_count, l_self_ns) acc -> { l_name; l_count; l_self_ns } :: acc)
      tbl []
    |> List.sort (fun a b -> compare b.l_self_ns a.l_self_ns)
  in
  let roots =
    List.fold_left
      (fun acc s -> if s.parent < 0 then acc + (s.stop_ns - s.start_ns) else acc)
      0 t.spans
  in
  (layers, roots)

let find_layer layers name = List.find_opt (fun l -> l.l_name = name) layers

(* The Chrome trace_event document (load in ui.perfetto.dev): one complete
   event per span; aggregates ride on their parent span's args. *)
let to_chrome t =
  let b = Buffer.create 65536 in
  let t0 = match spans t with s :: _ -> s.start_ns | [] -> 0 in
  let aggs_of = Hashtbl.create 64 in
  List.iter
    (fun a ->
      Hashtbl.replace aggs_of a.a_parent
        (a :: Option.value ~default:[] (Hashtbl.find_opt aggs_of a.a_parent)))
    t.aggs;
  Buffer.add_string b "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d"
        s.name
        (float_of_int (s.start_ns - t0) /. 1e3)
        (float_of_int (s.stop_ns - s.start_ns) /. 1e3)
        s.op;
      List.iter
        (fun a ->
          Printf.bprintf b ",\"%s.count\":%d,\"%s.ns\":%d" a.a_name a.a_count
            a.a_name a.a_ns)
        (Option.value ~default:[] (Hashtbl.find_opt aggs_of s.id));
      Buffer.add_string b "}}")
    (spans t);
  Buffer.add_string b "\n]\n";
  Buffer.contents b
