//! Crash-atomic file replacement, shared by every file the store
//! rewrites in place: the WAL reset, sealed segments, the segment
//! manifest, the independent-set checkpoint and single-file compactions.

use std::fs::File;
use std::io;
use std::path::Path;

/// Replaces `target` with the file `write` produces at `tmp`, durably:
/// the temp file is fsynced, renamed over `target`, and then the parent
/// directory is fsynced, so a power loss cannot undo a rename that has
/// already returned. A crash at any point leaves either the old `target`
/// or the complete new one, plus possibly a `tmp` orphan.
pub(crate) fn atomic_replace(
    tmp: &Path,
    target: &Path,
    write: impl FnOnce(&Path) -> io::Result<()>,
) -> io::Result<()> {
    write(tmp)?;
    File::open(tmp)?.sync_data()?;
    std::fs::rename(tmp, target)?;
    let dir = match target.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_extmem::ScratchDir;

    #[test]
    fn replaces_the_content_and_leaves_no_temp() {
        let dir = ScratchDir::new("atomic-replace").unwrap();
        let (tmp, target) = (dir.file("f.tmp"), dir.file("f"));
        std::fs::write(&target, b"old").unwrap();
        atomic_replace(&tmp, &target, |p| std::fs::write(p, b"new")).unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"new");
        assert!(!tmp.exists());
        // A target that does not exist yet is created.
        let fresh = dir.file("g");
        atomic_replace(&tmp, &fresh, |p| std::fs::write(p, b"g")).unwrap();
        assert_eq!(std::fs::read(&fresh).unwrap(), b"g");
        assert!(!tmp.exists());
    }

    #[test]
    fn missing_parent_directory_is_an_error() {
        let dir = ScratchDir::new("atomic-replace-missing").unwrap();
        let missing = dir.path().join("missing");
        let err = atomic_replace(&missing.join("f.tmp"), &missing.join("f"), |p| {
            std::fs::write(p, b"x")
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn a_failed_write_leaves_the_target_alone() {
        let dir = ScratchDir::new("atomic-replace-fail").unwrap();
        let target = dir.file("f");
        std::fs::write(&target, b"old").unwrap();
        let err = atomic_replace(&dir.file("f.tmp"), &target, |_| {
            Err(io::Error::other("writer failed"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "writer failed");
        assert_eq!(std::fs::read(&target).unwrap(), b"old");
    }
}
