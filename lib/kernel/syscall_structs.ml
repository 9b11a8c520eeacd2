(* The wire layouts of struct results.  The kernel encodes them into
   the buffer a call names; the typed wrappers decode them. *)

(* stat and fstat: inode, type (0 file, 1 directory), size and link
   count, each a little-endian int64. *)
let stat_bytes = 32

let encode_stat (st : Diskfs.stat) =
  let b = Bytes.create stat_bytes in
  Bytes.set_int64_le b 0 (Int64.of_int st.Diskfs.ino);
  Bytes.set_int64_le b 8 (match st.Diskfs.itype with Diskfs.Reg -> 0L | Diskfs.Dir -> 1L);
  Bytes.set_int64_le b 16 (Int64.of_int st.Diskfs.size);
  Bytes.set_int64_le b 24 (Int64.of_int st.Diskfs.nlink);
  b

let decode_stat b =
  let field off = Int64.to_int (Bytes.get_int64_le b off) in
  {
    Diskfs.ino = field 0;
    itype = (if field 8 = 1 then Diskfs.Dir else Diskfs.Reg);
    size = field 16;
    nlink = field 24;
  }

(* readdir: the inode as a little-endian int32, then the NUL-padded
   name. *)
let dirent_bytes = 32

let encode_dirents entries ~cap =
  let b = Bytes.make (dirent_bytes * min (List.length entries) cap) '\000' in
  List.iteri
    (fun i (name, ino) ->
      if i < cap then begin
        Bytes.set_int32_le b (i * dirent_bytes) (Int32.of_int ino);
        Bytes.blit_string name 0 b ((i * dirent_bytes) + 4)
          (min (String.length name) (dirent_bytes - 5))
      end)
    entries;
  b

let decode_dirents b n =
  List.init n (fun i ->
      let off = i * dirent_bytes in
      let name_end =
        match Bytes.index_from_opt b (off + 4) '\000' with
        | Some j when j < off + dirent_bytes -> j
        | Some _ | None -> off + dirent_bytes
      in
      (Bytes.sub_string b (off + 4) (name_end - off - 4), Int32.to_int (Bytes.get_int32_le b off)))

(* pipe, select and poll: descriptors as little-endian int32s; wait's
   status is one more. *)
let fd_bytes = 4

let encode_fds fds =
  let b = Bytes.create (fd_bytes * List.length fds) in
  let rec fill i = function
    | [] -> b
    | fd :: rest ->
        Bytes.set_int32_le b (fd_bytes * i) (Int32.of_int fd);
        fill (i + 1) rest
  in
  fill 0 fds

let decode_fd b i = Int32.to_int (Bytes.get_int32_le b (fd_bytes * i))

let decode_fds b n =
  let rec build i acc = if i < 0 then acc else build (i - 1) (decode_fd b i :: acc) in
  build (n - 1) []
