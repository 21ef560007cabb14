(* compare A.jsonl [B.jsonl]: per workload and metric, each side's median
   and quartiles over its rows. With one file it flags any end-to-end
   metric whose spread (interquartile range over median) exceeds a third
   of its BENCHMARK.json bound; with two it flags any end-to-end median
   that is worse on B than on A by more than the bound, and any count
   that differs. Exits 1 when anything is flagged. Rows are the
   {"bench":"e2e",...} lines run prints; other lines are skipped. *)

type spec = { unit : string; better : string; bound : float option }

(* One section ("end_to_end" or "per_layer") of BENCHMARK.json, in file
   order. *)
let section benchmark name =
  match Json.member name (Json.read_file benchmark) with
  | Some (Json.Arr ms) ->
    List.filter_map
      (fun mj ->
        match Json.str (Json.member "name" mj) with
        | Some n ->
          Some
            ( n,
              {
                unit = Option.value (Json.str (Json.member "unit" mj)) ~default:"";
                better = Option.value (Json.str (Json.member "better" mj)) ~default:"lower";
                bound = Json.num (Json.member "bound" mj);
              } )
        | None -> None)
      ms
  | _ -> []

(* (workload, metric) -> values, and the workloads seen. *)
let read_rows file =
  let ic = open_in file in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match Json.parse line with
       | row when Json.str (Json.member "bench" row) = Some "e2e" -> rows := row :: !rows
       | _ | (exception Json.Error _) -> ()
     done
   with End_of_file -> close_in ic);
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun row ->
      let w = Option.value (Json.str (Json.member "workload" row)) ~default:"?" in
      match Json.member "metrics" row with
      | Some (Json.Obj ms) ->
        List.iter
          (fun (name, v) ->
            match Json.num (Json.member "value" v) with
            | Some x ->
              let prev = Option.value (Hashtbl.find_opt tbl (w, name)) ~default:[] in
              Hashtbl.replace tbl (w, name) (x :: prev)
            | None -> ())
          ms
      | _ -> ())
    !rows;
  let workloads =
    List.sort_uniq compare (Hashtbl.fold (fun (w, _) _ acc -> w :: acc) tbl [])
  in
  (tbl, workloads)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them
   (the default "exclusive" method), so spreads read as the acceptance
   check reads them. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

let main ~benchmark a b =
  let specs = section benchmark "end_to_end" @ section benchmark "per_layer" in
  let ta, wa = read_rows a in
  let tb, wb =
    match b with Some f -> read_rows f | None -> (Hashtbl.create 1, [])
  in
  let flags = ref 0 in
  let flag fmt =
    incr flags;
    Printf.printf ("  !! " ^^ fmt ^^ "\n")
  in
  let show xs =
    let q1, q3 = quartiles xs in
    Printf.sprintf "%12.5g [%.5g, %.5g] n=%d" (median xs) q1 q3 (List.length xs)
  in
  List.iter
    (fun w ->
      Printf.printf "\n== %s ==\n%-34s %-6s %-40s %s\n" w "metric" "unit" "A median [q1, q3]"
        (if b = None then "spread" else "B median [q1, q3]   worse-by");
      List.iter
        (fun (name, s) ->
          let va = Option.value (Hashtbl.find_opt ta (w, name)) ~default:[] in
          let vb = Option.value (Hashtbl.find_opt tb (w, name)) ~default:[] in
          if va <> [] || vb <> [] then begin
            match b with
            | None ->
              let sp = spread va in
              Printf.printf "%-34s %-6s %-40s %.4f\n" name s.unit (show va) sp;
              (match s.bound with
               | Some bound when sp > bound /. 3.0 ->
                 flag "%s: spread %.4f exceeds a third of its bound %.4g" name sp bound
               | _ -> ())
            | Some _ ->
              let ma = median va and mb = median vb in
              let worse =
                if s.better = "higher" then (ma -. mb) /. Float.abs ma
                else (mb -. ma) /. Float.abs ma
              in
              Printf.printf "%-34s %-6s %-40s %s %+.4f\n" name s.unit
                (if va = [] then "-" else show va)
                (if vb = [] then "-" else show vb)
                worse;
              (match s.bound with
               | Some _ when va = [] || vb = [] -> flag "%s: missing on one side" name
               | Some bound when worse > bound ->
                 flag "%s: B is worse than A by %.4f, beyond its bound %.4g" name worse bound
               | Some _ -> ()
               | None ->
                 if s.unit = "count" && List.sort_uniq compare va <> List.sort_uniq compare vb
                 then flag "%s: count differs between A and B" name)
          end)
        specs)
    (List.sort_uniq compare (wa @ wb));
  Printf.printf "\n%d flagged\n" !flags;
  if !flags = 0 then 0 else 1
