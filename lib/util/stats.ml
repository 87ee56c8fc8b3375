let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    let log_sum =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geomean: non-positive input";
          acc +. log x)
        0.0 xs
    in
    exp (log_sum /. float_of_int (List.length xs))

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) *. (x -. m)) xs) in
    sqrt var

let median = function
  | [] -> 0.0
  | xs ->
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let percentile p = function
  | [] -> 0.0
  | xs ->
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]";
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    (* linear interpolation between closest ranks *)
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (arr.(lo) *. (1.0 -. frac)) +. (arr.(hi) *. frac)

let minimum = function [] -> 0.0 | x :: xs -> List.fold_left min x xs

let percent_change ~baseline v =
  if baseline = 0.0 then invalid_arg "Stats.percent_change: zero baseline";
  (v -. baseline) /. baseline *. 100.0

let ratio_summary pairs =
  mean
    (List.map
       (fun (a, b) ->
         if b = 0.0 then invalid_arg "Stats.ratio_summary: zero denominator";
         a /. b)
       pairs)
