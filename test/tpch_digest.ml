(* Pins the TPC-H generator's output. For seeds 5, 7 and 9 at scale
   factors 0.001, 0.01 and 0.1, prints every table of
   [Tpch.generate_all] with its row count, then one line per column with
   the MD5 of its values and, for a nullable column, the MD5 of its null
   mask. The runtest rule in test/dune diffs the output against
   tpch_digest.expected: a change to any draw, to the order of the draws
   or to a table's size changes some digest here. After an intended
   change to the data, `dune promote` records the new output. *)

module Table = Sia_engine.Table
module Tpch = Sia_engine.Tpch

(* Values as 64-bit little-endian words and masks as one '0'/'1' byte
   per row, so the digests do not depend on how a table stores them. *)
let digest_ints (a : int array) =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_mask (m : bool array) =
  Digest.to_hex (Digest.string (String.init (Array.length m) (fun r -> if m.(r) then '1' else '0')))

let () =
  List.iter
    (fun seed ->
      List.iter
        (fun sf ->
          Printf.printf "seed %d sf %g\n" seed sf;
          List.iter
            (fun (name, t) ->
              Printf.printf "  %s %d\n" name t.Table.nrows;
              Array.iteri
                (fun c cname ->
                  Printf.printf "    %s %s" cname (digest_ints t.Table.cols.(c));
                  Option.iter
                    (fun m -> Printf.printf " nulls %s" (digest_mask m))
                    t.Table.null_masks.(c);
                  print_newline ())
                t.Table.col_names)
            (Tpch.generate_all ~sf ~seed ()))
        [ 0.001; 0.01; 0.1 ])
    [ 5; 7; 9 ]
