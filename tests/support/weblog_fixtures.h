// Test-side ways into a Dataset from owning LogEntry values.
//
// The library turns CLF text into a Dataset only through
// Dataset::from_clf_stream; tests that build small tables by hand, or need
// the parsed entries of a file, use these instead.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "support/result.h"
#include "weblog/clf_reader.h"
#include "weblog/dataset.h"
#include "weblog/entry.h"

namespace fullweb::test_support {

/// Intern clients in order of first appearance (as from_clf_stream does in
/// delivery order), then build through the public Dataset::from_requests.
/// Errors on an empty entry list.
[[nodiscard]] support::Result<weblog::Dataset> dataset_from_entries(
    std::string name, std::span<const weblog::LogEntry> entries,
    const weblog::SessionizerOptions& sessionizer = {});

/// Every record of the CLF file at `path`, in file order, as owning entries
/// (read_clf_records + ClfLineParser::materialize). Throws
/// std::runtime_error when the file cannot be opened.
[[nodiscard]] std::vector<weblog::LogEntry> read_clf_entries(
    const std::string& path, const weblog::ClfReaderOptions& options = {});

}  // namespace fullweb::test_support
