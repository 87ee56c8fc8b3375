(* Helpers shared by the probe and its tests: percentiles with the
   "ten samples beyond" rule, open-loop due times, metric-name rules,
   and the shape of the one-line JSON result. *)

module Json = Cs_obs.Json

(* --- percentiles ---------------------------------------------------- *)

(* Nearest rank: the [p]th percentile of [n] sorted samples is the
   sample at 1-based rank [ceil (p/100 * n)]; the samples after it are
   the ones "beyond" the percentile. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let beyond ~n p = n - rank ~n p

(* Smallest sample count for which the [p]th percentile has at least
   [min_beyond] samples after it. *)
let samples_needed ?(min_beyond = 10) p =
  let rec go n = if beyond ~n p >= min_beyond then n else go (n + 1) in
  go (max 1 min_beyond)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* [percentile ~min_beyond p samples]: [Error] when fewer than
   [min_beyond] samples lie beyond the percentile — the tail is then not
   measured, and reporting it would be a guess. *)
let percentile ?(min_beyond = 0) p samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then Error "no samples"
  else if beyond ~n p < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it; need %d (>= %d samples)" p n
         (beyond ~n p) min_beyond (samples_needed ~min_beyond p))
  else Ok a.(rank ~n p - 1)

(* Diagnostic percentile: no sample-count rule, 0 when empty. *)
let pct p samples = match percentile p samples with Ok v -> v | Error _ -> 0.0

let median samples = pct 50.0 samples

(* --- open loop ------------------------------------------------------ *)

(* Job [i] of an open loop at [rate] jobs/s is due at [t0 + i/rate],
   whatever happened to earlier jobs. *)
let due ~t0 ~rate i = t0 +. (float_of_int i /. rate)

(* Jobs whose due time falls inside a window of [seconds]. *)
let n_jobs ~rate ~seconds = int_of_float (Float.floor (rate *. seconds))

(* How late the generator sent a job, in ms; sending early is not
   possible, so the clamp only hides clock granularity. *)
let late_ms ~due ~sent = Float.max 0.0 ((sent -. due) *. 1000.0)

(* --- metric names and the result line ------------------------------- *)

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
             metrics) ) ]

(* The result contract: exactly the four top-level keys; whole,
   non-negative counts with [attempted >= 1]; every metric a valid name
   with a finite numeric value and a valid unit, each name used once;
   and, when [expected] is given, exactly those metric names. *)
let check_result ?expected json =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* fields = match json with Json.Obj f -> Ok f | _ -> err "result is not an object" in
  let keys = List.sort compare (List.map fst fields) in
  let* () =
    if keys = [ "attempted"; "correct"; "failed"; "metrics" ] then Ok ()
    else err "result keys are [%s]" (String.concat "," keys)
  in
  let* () =
    match List.assoc "correct" fields with Json.Bool _ -> Ok () | _ -> err "correct is not a bool"
  in
  let count key =
    match List.assoc key fields with
    | Json.Num f when Float.is_integer f && f >= 0.0 -> Ok (int_of_float f)
    | _ -> err "%s is not a whole non-negative number" key
  in
  let* attempted = count "attempted" in
  let* failed = count "failed" in
  let* () = if attempted >= 1 then Ok () else err "attempted < 1" in
  let* () = if failed <= attempted then Ok () else err "failed > attempted" in
  let* metrics =
    match List.assoc "metrics" fields with Json.Obj m -> Ok m | _ -> err "metrics is not an object"
  in
  let* () =
    List.fold_left
      (fun acc (name, v) ->
        let* () = acc in
        let* () = if valid_name name then Ok () else err "bad metric name %S" name in
        match v with
        | Json.Obj [ ("value", Json.Num x); ("unit", Json.Str u) ] ->
          if not (Float.is_finite x) then err "%s is not finite" name
          else if not (valid_unit u) then err "%s has a bad unit %S" name u
          else Ok ()
        | _ -> err "%s is not {value, unit}" name)
      (Ok ()) metrics
  in
  let names = List.sort compare (List.map fst metrics) in
  let* () =
    if List.length (List.sort_uniq compare names) = List.length names then Ok ()
    else err "a metric name is used twice"
  in
  match expected with
  | None -> Ok ()
  | Some want ->
    let want = List.sort compare want in
    if names = want then Ok ()
    else
      err "metrics are [%s], expected [%s]" (String.concat "," names)
        (String.concat "," want)
