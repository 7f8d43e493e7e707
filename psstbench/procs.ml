(* Child processes of a workload: real [psst] servers and one-shot
   commands. Every child is registered until it has been reaped, and
   [stop_all] (installed at exit and on SIGTERM/SIGINT) ends whatever
   is left, so a failed run never leaves a server behind. *)

type t = { pid : int; name : string; log : string; mutable reaped : bool }

let live : t list ref = ref []

let spawn ~exe ~log name args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd)
  in
  let p = { pid; name; log; reaped = false } in
  live := p :: !live;
  p

let log_tail p =
  match Json.read_file p.log with
  | s ->
    let n = String.length s in
    String.sub s (max 0 (n - 600)) (min n 600)
  | exception Sys_error _ -> ""

let reap p status =
  p.reaped <- true;
  live := List.filter (fun q -> q != p) !live;
  status

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* [alive p] polls without blocking; a child that has exited is reaped. *)
let alive p =
  (not p.reaped)
  &&
  match waitpid_retry [ Unix.WNOHANG ] p.pid with
  | 0, _ -> true
  | _, status -> ignore (reap p status); false

let wait p = if p.reaped then Unix.WEXITED 0 else reap p (snd (waitpid_retry [] p.pid))

(* Run a command to completion; a non-zero exit is an error naming the
   command and the end of its log. *)
let run ~exe ~log name args =
  let p = spawn ~exe ~log name args in
  match wait p with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s failed:\n%s" name (log_tail p))

(* SIGTERM (the servers drain and exit), then SIGKILL after [grace_s]. *)
let stop ?(grace_s = 10.) p =
  if not p.reaped then begin
    (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace_s in
    while alive p && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.02
    done;
    if not p.reaped then begin
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait p)
    end
  end

let stop_all () = List.iter (fun p -> stop ~grace_s:5. p) !live

(* Peak resident set (VmHWM) of a process, in KiB. *)
let peak_rss_kib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> 0
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
            else go ()
        in
        go ())

let peak_rss_mib p = float_of_int (peak_rss_kib (string_of_int p.pid)) /. 1024.
let self_peak_rss_mib () = float_of_int (peak_rss_kib "self") /. 1024.

(* Wait until a server answers a ping on [endpoint]. *)
let wait_ready ?(timeout_s = 120.) p endpoint =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if not (alive p) then
      failwith (Printf.sprintf "%s exited during start-up:\n%s" p.name (log_tail p));
    match Psst_client.connect ~connect_timeout_ms:1000. endpoint with
    | c ->
      Fun.protect ~finally:(fun () -> Psst_client.close c) (fun () -> Psst_client.ping c)
    | exception Psst_client.Client_error _ ->
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "%s not ready after %.0f s" p.name timeout_s);
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let file_size path = (Unix.stat path).Unix.st_size
