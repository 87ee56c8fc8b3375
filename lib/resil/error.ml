type t =
  | Invalid_input of string
  | Infeasible of string
  | Resource_conflict of string
  | Unreachable of { src : int; dst : int }
  | Invalid_schedule of string
  | Pass_failure of string
  | Pass_timeout of string
  | Deadline_exceeded of string
  | Overloaded of string
  | Quota_exceeded of string

exception Error of t

let error e = raise (Error e)
let invalid_input msg = error (Invalid_input msg)
let infeasible msg = error (Infeasible msg)
let resource_conflict msg = error (Resource_conflict msg)
let unreachable ~src ~dst = error (Unreachable { src; dst })
let overloaded msg = error (Overloaded msg)

let kind = function
  | Invalid_input _ -> "invalid-input"
  | Infeasible _ -> "infeasible"
  | Resource_conflict _ -> "resource-conflict"
  | Unreachable _ -> "unreachable"
  | Invalid_schedule _ -> "invalid-schedule"
  | Pass_failure _ -> "pass-failure"
  | Pass_timeout _ -> "pass-timeout"
  | Deadline_exceeded _ -> "deadline-exceeded"
  | Overloaded _ -> "overloaded"
  | Quota_exceeded _ -> "quota-exceeded"

let message = function
  | Invalid_input m | Infeasible m | Resource_conflict m
  | Invalid_schedule m | Pass_failure m | Pass_timeout m
  | Deadline_exceeded m | Overloaded m | Quota_exceeded m ->
    m
  | Unreachable { src; dst } -> Printf.sprintf "no route from %d to %d" src dst

let to_string e = Printf.sprintf "%s: %s" (kind e) (message e)

let of_exn = function
  | Error e -> Some e
  | Invalid_argument m -> Some (Invalid_input m)
  | Failure m -> Some (Invalid_input m)
  | Division_by_zero -> Some (Invalid_input "division by zero")
  | Not_found -> Some (Invalid_input "not found")
  | _ -> None

let protect f =
  try Ok (f ())
  with e -> ( match of_exn e with Some t -> Result.Error t | None -> raise e)
