(* compare — judge two sets of uhmbench result files (written with --out)
   against the bounds in BENCHMARK.json.

     compare [--benchmark FILE] A.json ... vs B.json ...
       Agreement: for every (workload, metric), do the two sets' medians
       differ by no more than the metric's bound?

     compare [--benchmark FILE] --pairs PARENT.json ... vs CHANGE.json ...
       A change against its parent, runs paired by position (run them
       alternately).  A gain needs at least 10 pairs, the change winning
       at least 9 in 10 of them (ties count for neither), and medians
       further apart than the parent's interquartile range.  Otherwise
       the change's median may be worse than the parent's by at most the
       bound; when the parent's own spread exceeds the bound the metric
       is unresolved, unless every change run beats every parent run.

   Exits 1 when a metric disagrees, regresses or is unresolved, 2 on bad
   input. *)

module Perf = Uhm_core.Perf
module Stats = Uhmbench_ops.Stats

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("compare: " ^ msg);
      exit 2)
    fmt

let read_json path =
  try
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Perf.parse_json s
  with
  | Sys_error m -> die "%s" m
  | Perf.Json_error m -> die "%s: %s" path m

let field name = function
  | Perf.J_obj kv -> List.assoc_opt name kv
  | _ -> None

let str = function Some (Perf.J_str s) -> Some s | _ -> None
let num = function Some (Perf.J_num v) -> Some v | _ -> None

type spec = { better_lower : bool; bound : float option }

(* metric name -> direction and bound, from BENCHMARK.json *)
let read_specs path =
  let doc = read_json path in
  let list key =
    match field key doc with Some (Perf.J_arr l) -> l | _ -> []
  in
  List.filter_map
    (fun m ->
      match str (field "name" m) with
      | None -> None
      | Some name ->
          Some
            ( name,
              { better_lower = str (field "better" m) <> Some "higher";
                bound = num (field "bound" m) } ))
    (list "end_to_end" @ list "per_layer")

(* (workload, metric) -> values, in file order *)
let read_results paths =
  let tbl = Hashtbl.create 64 and keys = ref [] in
  List.iter
    (fun path ->
      let doc = read_json path in
      let workload =
        match str (field "workload" doc) with
        | Some w -> w
        | None -> die "%s: no workload" path
      in
      match field "metrics" doc with
      | Some (Perf.J_obj metrics) ->
          List.iter
            (fun (name, m) ->
              match num (field "value" m) with
              | Some v ->
                  let key = (workload, name) in
                  if not (Hashtbl.mem tbl key) then keys := key :: !keys;
                  Hashtbl.replace tbl key
                    (Option.value ~default:[] (Hashtbl.find_opt tbl key) @ [ v ])
              | None -> ())
            metrics
      | _ -> die "%s: no metrics" path)
    paths;
  (tbl, List.rev !keys)

(* [b] relative to [a], positive when [b] is worse *)
let worse_by spec a b = (if spec.better_lower then b -. a else a -. b) /. Float.abs a

let agreement specs (ta, keys) (tb, _) =
  let ok = ref true in
  Printf.printf "%-14s %-24s %12s %12s %8s %7s  %s\n" "workload" "metric" "median A"
    "median B" "diff" "bound" "verdict";
  List.iter
    (fun ((w, m) as key) ->
      match (Hashtbl.find_opt tb key, List.assoc_opt m specs) with
      | Some b, Some spec ->
          let ma = Stats.median (Array.of_list (Hashtbl.find ta key))
          and mb = Stats.median (Array.of_list b) in
          let diff = if ma = 0. then (if mb = 0. then 0. else infinity) else (mb -. ma) /. Float.abs ma in
          let verdict =
            match spec.bound with
            | None -> if ma = mb then "equal" else "-"
            | Some bound when Float.abs diff <= bound -> "agree"
            | Some _ ->
                ok := false;
                "DISAGREE"
          in
          Printf.printf "%-14s %-24s %12.6g %12.6g %+7.2f%% %7s  %s\n" w m ma mb
            (100. *. diff)
            (match spec.bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "-")
            verdict
      | _ -> ())
    keys;
  !ok

let pairs specs (tp, keys) (tc, _) =
  let ok = ref true in
  Printf.printf "%-14s %-20s %5s %5s %11s %11s %8s %8s  %s\n" "workload" "metric" "pairs"
    "wins" "parent" "change" "worse" "p.IQR" "verdict";
  List.iter
    (fun ((w, m) as key) ->
      match (Hashtbl.find_opt tc key, List.assoc_opt m specs) with
      | Some c, Some ({ bound = Some bound; _ } as spec) ->
          let p = Hashtbl.find tp key in
          let n = min (List.length p) (List.length c) in
          let pn = List.filteri (fun i _ -> i < n) p and cn = List.filteri (fun i _ -> i < n) c in
          let better x y = if spec.better_lower then x < y else x > y in
          let wins = List.length (List.filter Fun.id (List.map2 better cn pn)) in
          let mp = Stats.median (Array.of_list p) and mc = Stats.median (Array.of_list c) in
          let iqr =
            if List.length p >= 2 then
              let q1, _, q3 = Stats.quartiles (Array.of_list p) in
              q3 -. q1
            else infinity
          in
          let worse = worse_by spec mp mc in
          let all_better = List.for_all (fun x -> List.for_all (better x) p) c in
          let verdict =
            if n >= 10 && 10 * wins >= 9 * n && Float.abs (mc -. mp) > iqr && better mc mp
            then "improved"
            else if iqr /. Float.abs mp > bound && not all_better then "unresolved"
            else if worse > bound then "REGRESSED"
            else "within bound"
          in
          if verdict = "unresolved" || verdict = "REGRESSED" then ok := false;
          Printf.printf "%-14s %-20s %5d %5d %11.6g %11.6g %+7.2f%% %7.2f%%  %s\n" w m n wins
            mp mc (100. *. worse) (100. *. iqr /. Float.abs mp) verdict
      | _ -> ())
    keys;
  !ok

let () =
  let benchmark = ref "BENCHMARK.json" and paired = ref false in
  let files = ref [] in
  Arg.parse
    [ ("--benchmark", Arg.Set_string benchmark, "FILE  bounds (default BENCHMARK.json)");
      ("--pairs", Arg.Set paired, " judge B (change) against A (parent), run by run") ]
    (fun f -> files := f :: !files)
    "compare [--benchmark FILE] [--pairs] A.json ... vs B.json ...";
  let files = List.rev !files in
  let rec split acc = function
    | "vs" :: rest -> (List.rev acc, rest)
    | f :: rest -> split (f :: acc) rest
    | [] -> die "expected: A.json ... vs B.json ..."
  in
  let a, b = split [] files in
  if a = [] || b = [] then die "both sets need at least one result file";
  let specs = read_specs !benchmark in
  let ra = read_results a and rb = read_results b in
  let ok = if !paired then pairs specs ra rb else agreement specs ra rb in
  exit (if ok then 0 else 1)
